/**
 * @file
 * ActiveSet: the bitset over router or NI indices the Network steps
 * from. A component sets its own bit when work reaches it and clears
 * the bit when it runs dry, so a cycle costs nothing for components
 * that hold no work.
 */
#ifndef APPROXNOC_NOC_ACTIVE_SET_H
#define APPROXNOC_NOC_ACTIVE_SET_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace approxnoc {

/** A fixed-size bitset with an ascending-order sweep. */
class ActiveSet
{
  public:
    explicit ActiveSet(std::size_t n) : words_((n + 63) / 64, 0) {}

    void set(std::size_t i) { words_[i / 64] |= bit(i); }
    void clear(std::size_t i) { words_[i / 64] &= ~bit(i); }
    bool test(std::size_t i) const { return (words_[i / 64] & bit(i)) != 0; }

    bool
    any() const
    {
        for (std::uint64_t w : words_)
            if (w != 0)
                return true;
        return false;
    }

    void
    clearAll()
    {
        for (std::uint64_t &w : words_)
            w = 0;
    }

    /**
     * Call @p fn(i) for every set bit i in ascending order; returns the
     * number of calls. @p fn may set or clear any bit: each 64-bit word
     * is read once, when the sweep reaches it, so a bit set behind the
     * sweep, or ahead of it within the current word, is not visited
     * until the next sweep.
     */
    template <class Fn>
    std::size_t
    forEach(Fn &&fn)
    {
        std::size_t calls = 0;
        for (std::size_t k = 0; k < words_.size(); ++k) {
            for (std::uint64_t w = words_[k]; w != 0; w &= w - 1) {
                fn(k * 64 + static_cast<std::size_t>(std::countr_zero(w)));
                ++calls;
            }
        }
        return calls;
    }

  private:
    static std::uint64_t
    bit(std::size_t i)
    {
        return std::uint64_t{1} << (i % 64);
    }

    std::vector<std::uint64_t> words_;
};

/**
 * The work-tracking state a Network shares with its routers and NIs.
 * Routers and NIs write it from their own link and step paths; the
 * network reads it to decide what to step, drain and watch.
 */
struct NocActivity {
    NocActivity(std::size_t routers, std::size_t nodes)
        : routers(routers), nis(nodes), decoded(nodes)
    {}

    ActiveSet routers; ///< routers holding at least one buffered flit
    ActiveSet nis;     ///< NIs with a packet queued or mid-injection
    /** Endpoints whose NI decoded a block this cycle (cleared by the
     * network once it has drained their notifications). */
    ActiveSet decoded;
    /** Flits injected by NIs plus flits forwarded by routers, ever:
     * the deadlock watchdog's progress count. */
    std::uint64_t flit_moves = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_NOC_ACTIVE_SET_H
