/**
 * @file
 * Layer attribution for the traced benchmark run, recorded entirely
 * from the benchmark's side of the public APIs: a forwarding
 * CodecSystem decorator, a Clocked wrapper around the traffic source,
 * and explicit spans around Simulator::step, TraceLibrary::get and
 * each grid point. Nothing here reaches inside src/.
 *
 * Spans nest on a per-run stack. A span's exclusive time is its
 * duration minus the spans that ran inside it, so the exclusive times
 * of all layers add up exactly to the time of the outermost spans.
 */
#ifndef APPROXNOC_E2EBENCH_LAYER_TRACE_H
#define APPROXNOC_E2EBENCH_LAYER_TRACE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "compression/codec.h"
#include "sim/clocked.h"

namespace approxnoc::e2e {

/** The layers a traced run attributes host time to. */
enum Layer : std::size_t {
    kRep,      ///< one whole repetition of the workload's job
    kTraceGen, ///< TraceLibrary::get (workloads + cache model)
    kPoint,    ///< one grid point or one mesh run (harness)
    kStep,     ///< Simulator::step (its exclusive time is the NoC)
    kTraffic,  ///< the traffic source's evaluate/advance
    kEncode,   ///< CodecSystem::encodeBlock
    kDecode,   ///< CodecSystem::decodeBlock
    kDrain,    ///< one cycle's sweep of drainNotifications
    kLayerCount
};

inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Inclusive and exclusive nanoseconds per layer for one thread of
 * work. Not thread-safe: each grid point or mesh run owns one and
 * merges it into the run's total when it finishes.
 */
class LayerTimes
{
  public:
    void enter(Layer l) { stack_.push_back({l, now_ns(), 0}); }

    /**
     * Close the innermost open span of @p l, first closing any span
     * still open inside it at the same instant (the drain sweep, when
     * a cycle ends before its last destination was drained). Returns
     * the closed span's duration in ns.
     */
    std::int64_t exit(Layer l);

    /** Whether the innermost open span is one of @p l. */
    bool open(Layer l) const;

    std::int64_t inclusive(Layer l) const { return incl_[l]; }
    std::int64_t exclusive(Layer l) const { return excl_[l]; }

    /** Per-call durations of the codec calls, in ns. */
    std::vector<std::uint32_t> encode_ns, decode_ns;
    std::uint64_t notifications = 0;

    void merge(const LayerTimes &o);

  private:
    struct Frame {
        Layer layer;
        std::int64_t start;
        std::int64_t child;
    };
    std::vector<Frame> stack_;
    std::array<std::int64_t, kLayerCount> incl_{};
    std::array<std::int64_t, kLayerCount> excl_{};
};

/** RAII span. */
class Span
{
  public:
    Span(LayerTimes &t, Layer l) : t_(t), l_(l) { t_.enter(l_); }
    ~Span() { t_.exit(l_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    LayerTimes &t_;
    Layer l_;
};

/**
 * Forwarding decorator around the codec CodecFactory::create returns.
 * Times encodeBlock and decodeBlock per call. drainNotifications is
 * called once per destination per cycle, far too often to time each
 * call, so the span opens at the first drain of a cycle and closes
 * after destination n_nodes-1: it includes the NoC enqueueing the
 * notification packets the drain returned.
 */
class TimedCodec : public CodecSystem
{
  public:
    TimedCodec(std::unique_ptr<CodecSystem> inner, std::size_t n_nodes,
               LayerTimes &times);

    Scheme scheme() const override { return inner_->scheme(); }
    EncodedBlock encode(const DataBlock &block, NodeId src, NodeId dst,
                        Cycle now) override;
    EncodedBlock encodeBlock(const DataBlock &block, NodeId src, NodeId dst,
                             Cycle now) override;
    DataBlock decode(const EncodedBlock &enc, NodeId src, NodeId dst,
                     Cycle now) override;
    DataBlock decodeBlock(const EncodedBlock &enc, NodeId src, NodeId dst,
                          Cycle now) override;
    Cycle compressionLatency() const override;
    Cycle decompressionLatency() const override;
    std::vector<Notification> drainNotifications(NodeId dst) override;
    std::uint64_t consistencyMismatches() const override;
    std::uint8_t rawKind() const override { return inner_->rawKind(); }
    CodecActivity activity() const override { return inner_->activity(); }
    bool setErrorThreshold(double pct) override;
    void bindCounters(const CodecCounters &c) override;
    void bindErrorProfile(telemetry::ErrorProfile *qor) override;
    void bindProfiler(telemetry::PhaseProfiler *prof) override;

  private:
    std::unique_ptr<CodecSystem> inner_;
    NodeId last_node_;
    LayerTimes &times_;
};

/** Times a traffic source's two phases; register it in its place. */
class TimedClocked : public Clocked
{
  public:
    TimedClocked(Clocked &inner, LayerTimes &times)
        : Clocked(inner.name()), inner_(inner), times_(times)
    {}

    void
    evaluate(Cycle now) override
    {
        Span s(times_, kTraffic);
        inner_.evaluate(now);
    }

    void
    advance(Cycle now) override
    {
        Span s(times_, kTraffic);
        inner_.advance(now);
    }

  private:
    Clocked &inner_;
    LayerTimes &times_;
};

/** The @p q quantile (0..1, nearest rank) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);
double quantile(const std::vector<std::uint32_t> &v, double q);

} // namespace approxnoc::e2e

#endif // APPROXNOC_E2EBENCH_LAYER_TRACE_H
