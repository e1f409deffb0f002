/**
 * @file
 * A monotonically increasing event counter that may be bumped from
 * several threads at once. All operations use relaxed memory order:
 * the counter carries no synchronization, only a sum — which is all
 * the activity/telemetry counters need, because addition commutes, so
 * the final value is independent of thread interleaving. This is what
 * lets concurrent decodes (the destination-isolation contract,
 * compression/codec.h) produce stats byte-identical to the serial
 * path.
 *
 * Copy and assignment transfer the current value, so classes holding
 * one (Cam, Tcam, Avcl, the codecs) stay copyable/movable and can live
 * in std::vector — a bare std::atomic would delete those operations.
 * Copying is NOT atomic with respect to concurrent increments; copy
 * only while no other thread is writing (construction, tests).
 */
#ifndef APPROXNOC_COMMON_RELAXED_COUNTER_H
#define APPROXNOC_COMMON_RELAXED_COUNTER_H

#include <atomic>
#include <cstdint>

namespace approxnoc {

/** Relaxed-atomic commutative counter, copyable by value. */
class RelaxedCounter
{
  public:
    RelaxedCounter() = default;
    RelaxedCounter(std::uint64_t v) : v_(v) {}

    RelaxedCounter(const RelaxedCounter &o) : v_(o.load()) {}

    RelaxedCounter &
    operator=(const RelaxedCounter &o)
    {
        v_.store(o.load(), std::memory_order_relaxed);
        return *this;
    }

    RelaxedCounter &
    operator=(std::uint64_t v)
    {
        v_.store(v, std::memory_order_relaxed);
        return *this;
    }

    void
    add(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Decrement, for counters that gate work rather than accumulate
     * totals (e.g. the dictionary codecs' pending-update occupancy).
     * Increments and decrements still commute, so the value is
     * interleaving-independent; the caller must never let concurrent
     * subs outrun the adds.
     */
    void
    sub(std::uint64_t n = 1)
    {
        v_.fetch_sub(n, std::memory_order_relaxed);
    }

    RelaxedCounter &
    operator++()
    {
        add(1);
        return *this;
    }

    RelaxedCounter &
    operator+=(std::uint64_t n)
    {
        add(n);
        return *this;
    }

    std::uint64_t
    load() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    operator std::uint64_t() const { return load(); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

} // namespace approxnoc

#endif // APPROXNOC_COMMON_RELAXED_COUNTER_H
