/**
 * @file
 * The benchmark's three workloads, each one repetition of a fixed job
 * driven through the public APIs of harness, noc, sim, traffic and
 * compression. A repetition runs untraced (the path users take) or
 * traced (the same job with the layer decorators of layer_trace.h
 * spliced in, accumulating into TraceTotals).
 */
#ifndef APPROXNOC_E2EBENCH_WORKLOADS_H
#define APPROXNOC_E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "compression/codec.h"
#include "layer_trace.h"
#include "telemetry/error_profile.h"

namespace approxnoc::e2e {

/** Job sizes: the benchmark's, or the self-test's short ones. */
struct JobSize {
    std::size_t max_records; ///< paper_grid trace replay cap
    Cycle warmup;            ///< mesh cycles before statistics reset
    Cycle window;            ///< mesh measured cycles
};

JobSize job_size(bool short_run);

/** One repetition of a workload's job. */
struct RepResult {
    bool traced = false;
    double wall_s = 0.0;  ///< the whole job, set-up included
    double setup_s = 0.0; ///< trace generation / construction + warm-up
    double sim_s = 0.0;   ///< host time of the measured simulation
    std::uint64_t cycles = 0; ///< simulated cycles in sim_s
    std::size_t points = 0;   ///< operations attempted
    std::size_t failed = 0;   ///< operations that threw
    std::string outputs;      ///< simulated outputs, a JSON object
};

/** What the traced repetitions of a run add up to. */
struct TraceTotals {
    /** Guards every field below while grid points run. */
    std::mutex mu;

    LayerTimes times;
    std::map<Scheme, std::vector<std::uint32_t>> encode_ns, decode_ns;
    std::vector<double> point_s;
    std::set<std::thread::id> lanes;
    double busy_s = 0.0;  ///< sum of point durations
    double replay_s = 0.0; ///< wall time the points ran in
    std::vector<double> trace_gen_s; ///< per repetition
    std::uint64_t trace_records = 0; ///< per repetition

    std::uint64_t reps = 0;
    std::uint64_t cycles = 0;        ///< every stepped cycle
    std::uint64_t router_cycles = 0; ///< cycles x routers
    std::uint64_t flits_forwarded = 0;
    std::uint64_t buffer_writes = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t packets_injected = 0;
    std::uint64_t notifications = 0;
    CodecActivity activity;
    double words = 0.0, words_hit = 0.0, words_approx = 0.0;
    telemetry::ErrorProfile qor;

    /** The per-layer metrics as a JSON object of {value, unit}. */
    std::string metricsJson(double overhead_frac) const;
};

/** The 8 x 5 Table 1 grid through ExperimentRunner + run_replay. */
RepResult run_paper_grid(std::uint64_t seed, const JobSize &size,
                         TraceTotals *traced);

/** Host seconds of the grid's set-up alone: generating its traces. */
double time_paper_grid_setup(std::uint64_t seed, const JobSize &size);

/** One 8x8 cmesh run under open-loop uniform synthetic traffic. */
RepResult run_mesh(Scheme scheme, std::uint64_t seed, const JobSize &size,
                   TraceTotals *traced);

/** The traffic seed a mesh run draws from the benchmark seed. */
std::uint64_t mesh_traffic_seed(std::uint64_t seed);

} // namespace approxnoc::e2e

#endif // APPROXNOC_E2EBENCH_WORKLOADS_H
