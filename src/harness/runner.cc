#include "harness/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace approxnoc::harness {

unsigned
resolve_jobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::uint64_t
derive_seed(std::uint64_t base_seed, std::size_t index)
{
    // splitmix64 finalizer over the (base, index) pair. Index + 1 so
    // point 0 does not collapse onto the bare base seed.
    std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ull *
                                      (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

ExperimentRunner::ExperimentRunner(unsigned jobs, ProgressFn progress)
    : jobs_(resolve_jobs(jobs)), progress_(std::move(progress))
{}

std::vector<JobStatus>
ExperimentRunner::run(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    std::vector<JobStatus> statuses(n);
    if (n == 0)
        return statuses;

    std::atomic<std::size_t> done{0};
    std::mutex progress_mtx;

    // Exception capture into JobStatus lives in this wrapper: job i's
    // status lands at index i regardless of which lane ran it.
    auto task = [&](std::size_t i) {
        try {
            fn(i);
        } catch (const std::exception &e) {
            statuses[i].ok = false;
            statuses[i].error = e.what();
        } catch (...) {
            statuses[i].ok = false;
            statuses[i].error = "unknown exception";
        }
        std::size_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (progress_) {
            std::lock_guard<std::mutex> lock(progress_mtx);
            progress_(d, n);
        }
    };

    // Every lane, the caller included, claims the next unclaimed index
    // until none is left, so a slow point never idles the other lanes.
    std::atomic<std::size_t> next{0};
    auto lane = [&] {
        for (std::size_t i = next++; i < n; i = next++)
            task(i);
    };
    // The threads live for this batch only and are joined before
    // returning, so no state survives from one batch to the next.
    const std::size_t lanes = std::min<std::size_t>(jobs_, n);
    std::vector<std::thread> workers;
    workers.reserve(lanes - 1);
    for (std::size_t k = 1; k < lanes; ++k)
        workers.emplace_back(lane);
    lane();
    for (std::thread &w : workers)
        w.join();
    return statuses;
}

} // namespace approxnoc::harness
