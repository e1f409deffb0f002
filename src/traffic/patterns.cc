#include "traffic/patterns.h"

#include <cmath>

#include "common/bits.h"
#include "common/log.h"

namespace approxnoc {

TrafficPattern
pattern_from_string(const std::string &name)
{
    if (name == "uniform" || name == "ur" || name == "uniform_random")
        return TrafficPattern::UniformRandom;
    if (name == "transpose" || name == "tr")
        return TrafficPattern::Transpose;
    if (name == "bitcomp" || name == "bit_complement" || name == "bc")
        return TrafficPattern::BitComplement;
    if (name == "hotspot" || name == "hs")
        return TrafficPattern::Hotspot;
    if (name == "neighbor" || name == "nn")
        return TrafficPattern::Neighbor;
    ANOC_FATAL("unknown traffic pattern '", name, "'");
}

std::string
to_string(TrafficPattern p)
{
    switch (p) {
      case TrafficPattern::UniformRandom: return "uniform-random";
      case TrafficPattern::Transpose: return "transpose";
      case TrafficPattern::BitComplement: return "bit-complement";
      case TrafficPattern::Hotspot: return "hotspot";
      case TrafficPattern::Neighbor: return "neighbor";
    }
    return "?";
}

bool
transpose_is_defined(unsigned n_nodes)
{
    unsigned side =
        static_cast<unsigned>(std::lround(std::sqrt(double(n_nodes))));
    return side * side == n_nodes;
}

NodeId
pick_destination(TrafficPattern p, NodeId src, unsigned n_nodes, Rng &rng)
{
    ANOC_ASSERT(n_nodes > 1, "need at least two nodes for traffic");
    NodeId dst = src;
    switch (p) {
      case TrafficPattern::UniformRandom:
        break;
      case TrafficPattern::Transpose: {
        if (transpose_is_defined(n_nodes)) {
            unsigned side = static_cast<unsigned>(
                std::lround(std::sqrt(double(n_nodes))));
            unsigned x = src % side, y = src / side;
            dst = x * side + y;
        }
        break;
      }
      case TrafficPattern::BitComplement: {
        unsigned bits = log2_ceil(n_nodes);
        dst = (~src) & ((1u << bits) - 1u);
        if (dst >= n_nodes)
            dst = src; // fall back to uniform below
        break;
      }
      case TrafficPattern::Hotspot: {
        // 25% of traffic to node 0, rest uniform.
        if (rng.chance(0.25))
            dst = 0;
        break;
      }
      case TrafficPattern::Neighbor:
        dst = (src + 1) % n_nodes;
        break;
    }
    while (dst == src)
        dst = static_cast<NodeId>(rng.next(n_nodes));
    return dst;
}

} // namespace approxnoc
