/**
 * @file
 * e2e_bench: runs one benchmark workload for a time budget and prints
 * every repetition's host timings and simulated outputs as one JSON
 * document on stdout. run.py builds this program, checks the outputs
 * and reduces the repetitions to the benchmark's metrics.
 *
 *   e2e_bench --workload=<paper_grid|mesh8_baseline|mesh8_divaxx>
 *             --seed=<n> --seconds=<s> --trace=<0|1> [--short]
 *
 * With --trace=1 the run alternates untraced and traced repetitions
 * and adds the per-layer metrics of the traced ones.
 */
#include <sys/resource.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "workloads.h"

using namespace approxnoc;
using namespace approxnoc::e2e;

namespace {

/** No repetition starts once this much of the run has passed. */
constexpr double kHardStopS = 150.0;

/** Extra set-up-only samples of the grid, whose full repetitions are
 *  too long to give many. */
constexpr int kGridSetupSamples = 6;

double
median_wall(const std::vector<RepResult> &reps, bool traced)
{
    std::vector<double> w;
    for (const auto &r : reps)
        if (r.traced == traced)
            w.push_back(r.wall_s);
    return quantile(w, 0.5);
}

std::string
num_str(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
rep_json(const RepResult &r)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"traced\": %s, \"wall_s\": %.9g, \"setup_s\": %.9g, "
                  "\"sim_s\": %.9g, \"cycles\": %llu, \"points\": %zu, "
                  "\"failed\": %zu, \"outputs\": ",
                  r.traced ? "true" : "false", r.wall_s, r.setup_s, r.sim_s,
                  static_cast<unsigned long long>(r.cycles), r.points,
                  r.failed);
    return buf + r.outputs + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const std::string workload = args.getString("workload", "");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 0));
    const double seconds = args.getDouble("seconds", 10.0);
    const bool trace = args.getInt("trace", 0) != 0;
    const bool short_run = args.has("short");
    const JobSize size = job_size(short_run);

    std::function<RepResult(TraceTotals *)> rep;
    std::size_t min_reps = 5;
    if (workload == "paper_grid") {
        rep = [&](TraceTotals *t) { return run_paper_grid(seed, size, t); };
        min_reps = 3;
    } else if (workload == "mesh8_baseline" || workload == "mesh8_divaxx") {
        const Scheme s =
            workload == "mesh8_baseline" ? Scheme::Baseline : Scheme::DiVaxx;
        rep = [&, s](TraceTotals *t) { return run_mesh(s, seed, size, t); };
    } else {
        std::fprintf(stderr, "e2e_bench: unknown --workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    if (trace)
        min_reps = (min_reps + 1) / 2;
    if (short_run)
        min_reps = 1;

    // Repeat the fixed job until the time budget is spent: a
    // repetition starts only if the median one so far still fits. In
    // traced runs each repetition is an untraced + traced pair.
    TraceTotals totals;
    std::vector<RepResult> reps;
    std::vector<double> setup_samples;
    const std::int64_t t0 = now_ns();
    // One unreported mesh repetition first, so the reported ones start
    // with warm caches and a grown heap. The grid's set-up samples do
    // that job for the grid; a whole grid repetition is too long to
    // spare.
    if (workload != "paper_grid" && !short_run)
        rep(nullptr);
    if (workload == "paper_grid" && !trace && !short_run)
        for (int i = 0; i < kGridSetupSamples; ++i)
            setup_samples.push_back(time_paper_grid_setup(seed, size));
    for (std::size_t n = 0;; ++n) {
        reps.push_back(rep(nullptr));
        if (trace)
            reps.push_back(rep(&totals));
        const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
        const double next =
            median_wall(reps, false) + (trace ? median_wall(reps, true) : 0);
        if (elapsed + next > kHardStopS)
            break;
        if (n + 1 >= min_reps && elapsed + next > seconds)
            break;
    }

    std::string out = "{\"workload\": \"" + workload + "\"";
    out += ", \"seed\": " + std::to_string(seed);
    out += ", \"short\": " + std::string(short_run ? "true" : "false");
    out += ", \"compiler\": \"" E2E_COMPILER "\"";
    out += ", \"build_type\": \"" E2E_BUILD_TYPE "\"";
    out += ", \"reps\": [";
    for (std::size_t i = 0; i < reps.size(); ++i)
        out += (i ? ", " : "") + rep_json(reps[i]);
    out += "], \"setup_samples\": [";
    for (std::size_t i = 0; i < setup_samples.size(); ++i)
        out += (i ? ", " : "") + num_str(setup_samples[i]);
    out += "]";
    if (trace) {
        const double overhead =
            median_wall(reps, true) / median_wall(reps, false) - 1.0;
        out += ", \"layers\": " + totals.metricsJson(overhead);
    }
    out += ", \"peak_rss_mb\": " + num_str(peak_rss_mb()) + "}";
    std::puts(out.c_str());
    return 0;
}
