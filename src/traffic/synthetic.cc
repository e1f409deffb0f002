#include "traffic/synthetic.h"

#include <atomic>

#include "common/log.h"
#include "noc/packet.h"

namespace approxnoc {

SyntheticTraffic::SyntheticTraffic(Network &net, const SyntheticConfig &cfg,
                                   DataProvider &provider)
    : Clocked("synthetic-traffic"), net_(net), cfg_(cfg),
      provider_(provider), rng_(cfg.seed)
{
    // Offered load is specified in uncompressed flits/cycle/node; a
    // data packet is 1 head + payload flits, a control packet 1 flit.
    unsigned data_flits =
        1 + payload_flits(cfg.words_per_block * 32,
                          net.config().flit_bits);
    double avg_flits = cfg.data_packet_ratio * data_flits +
                       (1.0 - cfg.data_packet_ratio) * 1.0;
    packet_prob_ = cfg.injection_rate / avg_flits;
    ANOC_ASSERT(packet_prob_ <= 1.0,
                "injection rate too high for Bernoulli generation");

    unsigned n = net.config().nodes();
    static std::atomic<bool> transpose_warned{false};
    if (cfg.pattern == TrafficPattern::Transpose &&
        !transpose_is_defined(n) && !transpose_warned.exchange(true))
        ANOC_WARN("transpose traffic on ", n,
                  " endpoints (not a square grid) falls back to uniform "
                  "random destinations");
}

void
SyntheticTraffic::evaluate(Cycle)
{
}

void
SyntheticTraffic::advance(Cycle now)
{
    if (!enabled_)
        return;
    unsigned n = net_.config().nodes();
    for (NodeId src = 0; src < n; ++src) {
        if (!rng_.chance(packet_prob_))
            continue;
        NodeId dst = pick_destination(cfg_.pattern, src, n, rng_);
        PacketPtr p;
        if (rng_.chance(cfg_.data_packet_ratio)) {
            DataBlock b = provider_.next(src);
            if (b.approximable())
                b.setApproximable(rng_.chance(cfg_.approx_ratio));
            p = net_.makeDataPacket(src, dst, std::move(b));
        } else {
            p = net_.makeControlPacket(src, dst);
        }
        net_.inject(p, now);
        ++offered_;
    }
}

} // namespace approxnoc
