#include "layer_trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace approxnoc::e2e {

std::int64_t
LayerTimes::exit(Layer l)
{
    const std::int64_t t = now_ns();
    for (;;) {
        if (stack_.empty())
            throw std::logic_error("layer span closed but never opened");
        Frame f = stack_.back();
        stack_.pop_back();
        const std::int64_t dur = t - f.start;
        incl_[f.layer] += dur;
        excl_[f.layer] += dur - f.child;
        if (!stack_.empty())
            stack_.back().child += dur;
        if (f.layer == l)
            return dur;
    }
}

bool
LayerTimes::open(Layer l) const
{
    return !stack_.empty() && stack_.back().layer == l;
}

void
LayerTimes::merge(const LayerTimes &o)
{
    for (std::size_t i = 0; i < kLayerCount; ++i) {
        incl_[i] += o.incl_[i];
        excl_[i] += o.excl_[i];
    }
    encode_ns.insert(encode_ns.end(), o.encode_ns.begin(), o.encode_ns.end());
    decode_ns.insert(decode_ns.end(), o.decode_ns.begin(), o.decode_ns.end());
    notifications += o.notifications;
}

namespace {

std::uint32_t
clamp_ns(std::int64_t ns)
{
    return static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(ns, 0, UINT32_MAX));
}

} // namespace

TimedCodec::TimedCodec(std::unique_ptr<CodecSystem> inner,
                       std::size_t n_nodes, LayerTimes &times)
    : inner_(std::move(inner)),
      last_node_(static_cast<NodeId>(n_nodes - 1)), times_(times)
{}

EncodedBlock
TimedCodec::encode(const DataBlock &block, NodeId src, NodeId dst, Cycle now)
{
    return inner_->encode(block, src, dst, now);
}

EncodedBlock
TimedCodec::encodeBlock(const DataBlock &block, NodeId src, NodeId dst,
                        Cycle now)
{
    times_.enter(kEncode);
    EncodedBlock enc = inner_->encodeBlock(block, src, dst, now);
    times_.encode_ns.push_back(clamp_ns(times_.exit(kEncode)));
    return enc;
}

DataBlock
TimedCodec::decode(const EncodedBlock &enc, NodeId src, NodeId dst,
                   Cycle now)
{
    return inner_->decode(enc, src, dst, now);
}

DataBlock
TimedCodec::decodeBlock(const EncodedBlock &enc, NodeId src, NodeId dst,
                        Cycle now)
{
    times_.enter(kDecode);
    DataBlock out = inner_->decodeBlock(enc, src, dst, now);
    times_.decode_ns.push_back(clamp_ns(times_.exit(kDecode)));
    return out;
}

Cycle
TimedCodec::compressionLatency() const
{
    return inner_->compressionLatency();
}

Cycle
TimedCodec::decompressionLatency() const
{
    return inner_->decompressionLatency();
}

std::vector<CodecSystem::Notification>
TimedCodec::drainNotifications(NodeId dst)
{
    if (!times_.open(kDrain))
        times_.enter(kDrain);
    auto out = inner_->drainNotifications(dst);
    times_.notifications += out.size();
    if (dst == last_node_)
        times_.exit(kDrain);
    return out;
}

std::uint64_t
TimedCodec::consistencyMismatches() const
{
    return inner_->consistencyMismatches();
}

bool
TimedCodec::setErrorThreshold(double pct)
{
    return inner_->setErrorThreshold(pct);
}

void
TimedCodec::bindCounters(const CodecCounters &c)
{
    inner_->bindCounters(c);
}

void
TimedCodec::bindErrorProfile(telemetry::ErrorProfile *qor)
{
    inner_->bindErrorProfile(qor);
}

void
TimedCodec::bindProfiler(telemetry::PhaseProfiler *prof)
{
    inner_->bindProfiler(prof);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    const std::size_t k = std::min(
        v.size() - 1,
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
            (q > 0 ? 1 : 0));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return v[k];
}

double
quantile(const std::vector<std::uint32_t> &v, double q)
{
    return quantile(std::vector<double>(v.begin(), v.end()), q);
}

} // namespace approxnoc::e2e
