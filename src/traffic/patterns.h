/**
 * @file
 * Synthetic destination patterns (paper Fig. 12 uses Uniform Random
 * and Transpose; the usual NoC suspects are included for completeness).
 */
#ifndef APPROXNOC_TRAFFIC_PATTERNS_H
#define APPROXNOC_TRAFFIC_PATTERNS_H

#include <string>

#include "common/rng.h"
#include "common/types.h"

namespace approxnoc {

/** Destination selection policy for synthetic traffic. */
enum class TrafficPattern : std::uint8_t {
    UniformRandom, ///< any other node, uniformly
    Transpose,     ///< node (x,y) -> (y,x) on a square node grid
    BitComplement, ///< node i -> ~i
    Hotspot,       ///< a fraction of traffic to one node, rest uniform
    Neighbor,      ///< node i -> i+1 (wraps)
};

TrafficPattern pattern_from_string(const std::string &name);
std::string to_string(TrafficPattern p);

/**
 * True when @p n_nodes endpoints form a square grid, the only case in
 * which Transpose is a permutation. The cmeshes this repo runs (4x4
 * and 8x8 routers, two endpoints each: 32 and 128) are not square, so
 * there Transpose draws uniformly at random.
 */
bool transpose_is_defined(unsigned n_nodes);

/**
 * Pick a destination for @p src under pattern @p p over @p n_nodes
 * endpoints. Deterministic patterns whose mapping would be the source
 * itself, or that are undefined for @p n_nodes, fall back to
 * uniform-random reselection.
 */
NodeId pick_destination(TrafficPattern p, NodeId src, unsigned n_nodes,
                        Rng &rng);

} // namespace approxnoc

#endif // APPROXNOC_TRAFFIC_PATTERNS_H
