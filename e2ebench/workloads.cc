#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "core/codec_factory.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "noc/network.h"
#include "power/power_model.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "traffic/data_provider.h"
#include "traffic/replay.h"
#include "traffic/synthetic.h"
#include "workloads/workload.h"

namespace approxnoc::e2e {

namespace {

using harness::ExperimentConfig;
using harness::ExperimentPoint;
using harness::ReplayResult;

double
seconds_since(std::int64_t t0)
{
    return static_cast<double>(now_ns() - t0) * 1e-9;
}

/** Builds one flat JSON object; numbers keep every digit. */
class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double v)
    {
        char buf[32];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof buf, "%.17g", v);
        else
            std::snprintf(buf, sizeof buf, "null");
        return raw(key, buf);
    }

    JsonObject &
    num(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &
    text(const std::string &key, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
        }
        return raw(key, q + "\"");
    }

    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
        return *this;
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** A seeded Fisher-Yates shuffle (splitmix64 via derive_seed). */
template <typename T>
std::vector<T>
shuffled(std::vector<T> v, std::uint64_t seed, std::uint64_t salt)
{
    for (std::size_t i = v.size(); i > 1; --i) {
        std::uint64_t r = harness::derive_seed(seed ^ salt, i);
        std::swap(v[i - 1], v[r % i]);
    }
    return v;
}

/** The Table 1 grid, in an order drawn from @p seed. */
harness::ExperimentSpec
grid_spec(std::uint64_t seed, const JobSize &size)
{
    // The seed permutes the order benchmarks and schemes run in; the
    // traces themselves are the paper's fixed kernels, so the expected
    // rows are the same for every seed.
    std::vector<Scheme> schemes(std::begin(kAllSchemes),
                                std::end(kAllSchemes));
    harness::ExperimentSpec::Builder b;
    b.benchmarks(shuffled(workload_names(), seed, 0xB3))
        .schemes(shuffled(schemes, seed, 0x5C))
        .jobs(1)
        .maxRecords(size.max_records);
    return b.build();
}

/** Network-side counts of one finished traced simulation. */
struct PointCounts {
    std::uint64_t cycles = 0, routers = 0;
    std::uint64_t flits_forwarded = 0, buffer_writes = 0;
    std::uint64_t packets_delivered = 0, packets_injected = 0;
    CodecActivity activity;
    double words = 0.0, words_hit = 0.0, words_approx = 0.0;
};

PointCounts
count_network(Network &net, Cycle cycles, std::uint64_t injected)
{
    PointCounts c;
    const NocConfig &cfg = net.config();
    c.cycles = cycles;
    c.routers = cfg.routers();
    c.flits_forwarded = net.routerFlitsForwarded();
    c.buffer_writes = net.routerBufferWrites();
    for (NodeId n = 0; n < static_cast<NodeId>(cfg.nodes()); ++n)
        c.packets_delivered += net.ni(n).packetsDelivered();
    c.packets_injected = injected;
    c.activity = net.codecActivity();
    const QualityTracker &q = net.stats().quality;
    c.words = static_cast<double>(q.totalWords());
    c.words_hit = q.encodedFraction() * c.words;
    c.words_approx = q.approxEncodedFraction() * c.words;
    return c;
}

void
add_activity(CodecActivity &a, const CodecActivity &b)
{
    a.words_encoded += b.words_encoded;
    a.words_decoded += b.words_decoded;
    a.cam_searches += b.cam_searches;
    a.cam_writes += b.cam_writes;
    a.tcam_searches += b.tcam_searches;
    a.tcam_writes += b.tcam_writes;
    a.avcl_ops += b.avcl_ops;
}

std::string
activity_json(const CodecActivity &a)
{
    return JsonObject()
        .num("words_encoded", a.words_encoded)
        .num("words_decoded", a.words_decoded)
        .num("cam_searches", a.cam_searches)
        .num("cam_writes", a.cam_writes)
        .num("tcam_searches", a.tcam_searches)
        .num("tcam_writes", a.tcam_writes)
        .num("avcl_ops", a.avcl_ops)
        .str();
}

/** Fold one traced simulation into the run's totals (caller locks). */
void
fold(TraceTotals &t, const LayerTimes &lt, Scheme scheme,
     const PointCounts &c, const telemetry::ErrorProfile &qor)
{
    t.times.merge(lt);
    auto &enc = t.encode_ns[scheme];
    enc.insert(enc.end(), lt.encode_ns.begin(), lt.encode_ns.end());
    auto &dec = t.decode_ns[scheme];
    dec.insert(dec.end(), lt.decode_ns.begin(), lt.decode_ns.end());
    const double point_s = static_cast<double>(lt.inclusive(kPoint)) * 1e-9;
    t.point_s.push_back(point_s);
    t.busy_s += point_s;
    t.lanes.insert(std::this_thread::get_id());
    t.cycles += c.cycles;
    t.router_cycles += c.cycles * c.routers;
    t.flits_forwarded += c.flits_forwarded;
    t.buffer_writes += c.buffer_writes;
    t.packets_delivered += c.packets_delivered;
    t.packets_injected += c.packets_injected;
    add_activity(t.activity, c.activity);
    t.words += c.words;
    t.words_hit += c.words_hit;
    t.words_approx += c.words_approx;
    t.qor.merge(qor);
}

/**
 * The traced twin of harness::run_replay for one grid point: the same
 * set-up, step loop and reduction, with the codec decorated, the
 * trace replay wrapped and every Simulator::step timed. Must produce
 * bit-identical ReplayResult scalars (checked by run.py).
 */
ReplayResult
traced_replay(const CommTrace &trace, const ExperimentPoint &pt,
              const ExperimentConfig &cfg, LayerTimes &lt, PointCounts &out)
{
    NocConfig ncfg;
    CodecConfig cc;
    cc.n_nodes = ncfg.nodes();
    cc.error_threshold_pct = pt.threshold;
    TimedCodec codec(CodecFactory::create(pt.scheme, cc), cc.n_nodes, lt);

    Network net(ncfg, &codec);
    Simulator sim;
    net.attach(sim);

    auto qor = std::make_shared<telemetry::ErrorProfile>();
    if (pt.threshold > 0)
        qor->setDebugLimit(pt.threshold / 100.0 *
                           telemetry::ErrorProfile::kDebugSlack);
    net.bindErrorProfile(qor.get());

    CommTrace capped;
    if (trace.size() > cfg.max_records) {
        for (const auto &b : trace.blocks())
            capped.addBlock(b);
        for (std::size_t i = 0; i < cfg.max_records; ++i)
            capped.add(trace.records()[i]);
    }
    const CommTrace &use = trace.size() > cfg.max_records ? capped : trace;
    double natural = harness::TraceLibrary::naturalLoad(use, ncfg.nodes());
    double time_scale = natural > 0 && pt.load > 0 ? natural / pt.load : 1.0;

    TraceReplay replay(net, use, time_scale, pt.approx_ratio);
    TimedClocked timed_replay(replay, lt);
    sim.add(&timed_replay);

    // Simulator::runUntil(pred, 2e8) with check_interval 1, unrolled
    // so each step gets its own span.
    const Cycle end = sim.now() + static_cast<Cycle>(2e8);
    auto finished = [&] { return replay.done() && net.drained(); };
    bool done = false;
    while (sim.now() < end) {
        if ((done = finished()))
            break;
        Span s(lt, kStep);
        sim.step();
    }
    if (!done && !finished())
        throw std::runtime_error("replay failed to drain within bound");

    const NetworkStats &s = net.stats();
    ReplayResult r;
    r.queue_lat = s.queue_lat.mean();
    r.net_lat = s.net_lat.mean();
    r.decode_lat = s.decode_lat.mean();
    r.total_lat = s.total_lat.mean();
    r.quality = s.quality.dataQuality();
    r.exact_fraction = s.quality.exactEncodedFraction();
    r.approx_fraction = s.quality.approxEncodedFraction();
    r.compression_ratio = s.quality.compressionRatio();
    r.data_flits = net.dataFlitsInjected();
    r.packets = s.packets_delivered.value();
    r.elapsed = sim.now();
    PowerModel pm;
    r.dynamic_power_mw = pm.dynamicPowerMw(net, sim.now());
    r.qor = qor;

    out = count_network(net, sim.now(), replay.injected());
    return r;
}

std::string
replay_json(const ReplayResult &r)
{
    JsonObject o;
    o.num("queue_lat", r.queue_lat)
        .num("net_lat", r.net_lat)
        .num("decode_lat", r.decode_lat)
        .num("total_lat", r.total_lat)
        .num("quality", r.quality)
        .num("exact_fraction", r.exact_fraction)
        .num("approx_fraction", r.approx_fraction)
        .num("compression_ratio", r.compression_ratio)
        .num("data_flits", r.data_flits)
        .num("packets", r.packets)
        .num("dynamic_power_mw", r.dynamic_power_mw)
        .num("elapsed", static_cast<std::uint64_t>(r.elapsed));
    if (r.qor)
        o.num("qor_samples", r.qor->samples())
            .num("qor_mean_abs", r.qor->meanAbs());
    return o.str();
}

/** Step @p n cycles, one span per step when traced. */
void
step_cycles(Simulator &sim, Cycle n, LayerTimes *lt)
{
    if (!lt) {
        sim.run(n);
        return;
    }
    for (Cycle i = 0; i < n; ++i) {
        Span s(*lt, kStep);
        sim.step();
    }
}

/** Appends `"name": {"value": v, "unit": u}` entries. */
class MetricList
{
  public:
    MetricList &
    add(const std::string &name, double v, const std::string &unit)
    {
        obj_.raw(name, JsonObject().num("value", v).text("unit", unit).str());
        return *this;
    }

    std::string str() const { return obj_.str(); }

  private:
    JsonObject obj_;
};

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

} // namespace

std::string
TraceTotals::metricsJson(double overhead_frac) const
{
    const double n = static_cast<double>(reps ? reps : 1);
    const double cyc = static_cast<double>(cycles);
    auto per_cycle = [&](std::int64_t ns) {
        return ratio(static_cast<double>(ns), cyc);
    };
    auto excl = [&](Layer l) { return times.exclusive(l); };
    auto incl = [&](Layer l) { return times.inclusive(l); };
    const double encode_calls = static_cast<double>(times.encode_ns.size());
    const std::int64_t unattributed =
        incl(kRep) - incl(kTraceGen) - incl(kPoint);

    MetricList m;
    m.add("workloads.trace_gen_s", quantile(trace_gen_s, 0.5), "s")
        .add("workloads.trace_records", static_cast<double>(trace_records),
             "count")
        .add("harness.points", static_cast<double>(point_s.size()) / n,
             "count")
        .add("harness.point_s_p50", quantile(point_s, 0.5), "s")
        .add("harness.point_s_p75", quantile(point_s, 0.75), "s")
        .add("harness.point_s_max", quantile(point_s, 1.0), "s")
        .add("harness.lanes_used", static_cast<double>(lanes.size()),
             "count")
        .add("harness.parallelism", ratio(busy_s, replay_s), "ratio")
        .add("harness.self_ns_per_cycle", per_cycle(excl(kPoint)),
             "ns/cycle")
        .add("sim.cycles", cyc / n, "cycles")
        .add("sim.step_ns_per_cycle", per_cycle(incl(kStep)), "ns/cycle")
        .add("traffic.self_ns_per_cycle", per_cycle(excl(kTraffic)),
             "ns/cycle")
        .add("traffic.packets_injected",
             static_cast<double>(packets_injected) / n, "count")
        .add("noc.self_ns_per_cycle", per_cycle(excl(kStep)), "ns/cycle")
        .add("noc.ns_per_router_cycle",
             ratio(static_cast<double>(excl(kStep)),
                   static_cast<double>(router_cycles)),
             "ns")
        .add("noc.ns_per_flit_hop",
             ratio(static_cast<double>(excl(kStep)),
                   static_cast<double>(flits_forwarded)),
             "ns")
        .add("noc.flits_forwarded", static_cast<double>(flits_forwarded) / n,
             "count")
        .add("noc.buffer_writes", static_cast<double>(buffer_writes) / n,
             "count")
        .add("noc.packets_delivered",
             static_cast<double>(packets_delivered) / n, "count")
        .add("compression.encode_calls", encode_calls / n, "count")
        .add("compression.encode_ns_p50", quantile(times.encode_ns, 0.5),
             "ns")
        .add("compression.encode_ns_p99", quantile(times.encode_ns, 0.99),
             "ns")
        .add("compression.encode_ns_per_cycle", per_cycle(incl(kEncode)),
             "ns/cycle")
        .add("compression.decode_calls",
             static_cast<double>(times.decode_ns.size()) / n, "count")
        .add("compression.decode_ns_p50", quantile(times.decode_ns, 0.5),
             "ns")
        .add("compression.decode_ns_p99", quantile(times.decode_ns, 0.99),
             "ns")
        .add("compression.decode_ns_per_cycle", per_cycle(incl(kDecode)),
             "ns/cycle")
        .add("compression.drain_ns_per_cycle", per_cycle(incl(kDrain)),
             "ns/cycle")
        .add("compression.notifications",
             static_cast<double>(times.notifications) / n, "count");
    for (Scheme s : kAllSchemes) {
        const std::string p =
            "compression." + telemetry::sanitize_component(to_string(s));
        auto enc = encode_ns.find(s);
        auto dec = decode_ns.find(s);
        m.add(p + ".encode_ns_p50",
              enc == encode_ns.end() ? 0.0 : quantile(enc->second, 0.5), "ns")
            .add(p + ".decode_ns_p50",
                 dec == decode_ns.end() ? 0.0 : quantile(dec->second, 0.5),
                 "ns");
    }
    m.add("compression.hit_frac", ratio(words_hit, words), "frac")
        .add("approx.approx_frac", ratio(words_approx, words), "frac")
        .add("approx.avcl_ops_per_block",
             ratio(static_cast<double>(activity.avcl_ops), encode_calls),
             "count")
        .add("approx.mean_rel_err", qor.meanAbs(), "frac")
        .add("tcam.searches_per_block",
             ratio(static_cast<double>(activity.tcam_searches), encode_calls),
             "count")
        .add("tcam.writes", static_cast<double>(activity.tcam_writes) / n,
             "count")
        .add("trace.overhead_frac", overhead_frac, "frac")
        .add("trace.unattributed_frac",
             ratio(static_cast<double>(unattributed),
                   static_cast<double>(incl(kRep))),
             "frac");
    return m.str();
}

JobSize
job_size(bool short_run)
{
    // The record cap is sweep_all's default. The mesh warm-up outlasts
    // the DI-VAXX cold-dictionary transient: after 2k warm-up cycles a
    // 12k window measured 60 cycles mean latency and 1.4 notifications
    // per data packet, after 10k it measured 34.6 and 0.75, after 20k
    // 33.0 and 0.75.
    if (short_run)
        return {400, 300, 1500};
    return {20000, 10000, 12000};
}

double
time_paper_grid_setup(std::uint64_t seed, const JobSize &size)
{
    harness::Experiment ex(grid_spec(seed, size));
    const std::int64_t t0 = now_ns();
    ex.prefetchTraces();
    return seconds_since(t0);
}

RepResult
run_paper_grid(std::uint64_t seed, const JobSize &size, TraceTotals *traced)
{
    harness::Experiment ex(grid_spec(seed, size));
    const harness::ExperimentSpec &spec = ex.spec();

    RepResult r;
    r.traced = traced != nullptr;
    r.points = spec.size();
    const std::int64_t t0 = now_ns();
    LayerTimes rep_times;
    if (traced) {
        rep_times.enter(kRep);
        std::uint64_t records = 0;
        for (const auto &bm : spec.benchmarks()) {
            Span s(rep_times, kTraceGen);
            records += ex.traces().get(bm).size();
        }
        std::lock_guard<std::mutex> lock(traced->mu);
        traced->trace_gen_s.push_back(
            static_cast<double>(rep_times.inclusive(kTraceGen)) * 1e-9);
        traced->trace_records = records;
    } else {
        ex.prefetchTraces();
    }
    r.setup_s = seconds_since(t0);

    const std::int64_t t1 = now_ns();
    const harness::ResultSink *sink;
    if (traced) {
        sink = &ex.run([&](const ExperimentPoint &pt) {
            const CommTrace &trace = ex.traces().get(pt.benchmark);
            LayerTimes lt;
            PointCounts counts;
            ReplayResult res;
            {
                Span s(lt, kPoint);
                res = traced_replay(trace, pt, spec.config(), lt, counts);
            }
            std::lock_guard<std::mutex> lock(traced->mu);
            fold(*traced, lt, pt.scheme, counts, *res.qor);
            return res;
        });
    } else {
        sink = &ex.run();
    }
    r.sim_s = seconds_since(t1);

    JsonObject outputs;
    for (const auto &pt : spec.points()) {
        const harness::PointResult &pr = sink->at(pt.index);
        const std::string key = pt.benchmark + "/" + to_string(pt.scheme);
        if (!pr.ok) {
            ++r.failed;
            outputs.raw(key, JsonObject().text("error", pr.error).str());
            continue;
        }
        r.cycles += pr.replay.elapsed;
        outputs.raw(key, replay_json(pr.replay));
    }
    r.outputs = outputs.str();
    r.wall_s = seconds_since(t0);
    if (traced) {
        rep_times.exit(kRep);
        std::lock_guard<std::mutex> lock(traced->mu);
        traced->times.merge(rep_times);
        traced->replay_s += r.sim_s;
        ++traced->reps;
    }
    return r;
}

std::uint64_t
mesh_traffic_seed(std::uint64_t seed)
{
    // Eight traffic variants, each with stored expected outputs, so
    // every run is checked exactly whatever seed it is given.
    return 1 + seed % 8;
}

RepResult
run_mesh(Scheme scheme, std::uint64_t seed, const JobSize &size,
         TraceTotals *traced)
{
    const std::uint64_t tseed = mesh_traffic_seed(seed);
    RepResult r;
    r.traced = traced != nullptr;
    r.points = 1;
    r.cycles = size.window;
    LayerTimes lt;
    LayerTimes *tlt = traced ? &lt : nullptr;
    telemetry::ErrorProfile qor;
    PointCounts counts;

    const std::int64_t t0 = now_ns();
    if (traced) {
        lt.enter(kRep);
        lt.enter(kPoint);
    }
    {
        NocConfig ncfg;
        ncfg.rows = 8;
        ncfg.cols = 8;
        ncfg.concentration = 2;
        CodecConfig cc;
        cc.n_nodes = ncfg.nodes();
        std::unique_ptr<CodecSystem> codec = CodecFactory::create(scheme, cc);
        if (traced)
            codec = std::make_unique<TimedCodec>(std::move(codec), cc.n_nodes,
                                                 lt);
        Network net(ncfg, codec.get());
        Simulator sim;
        net.attach(sim);
        qor.setDebugLimit(cc.error_threshold_pct / 100.0 *
                          telemetry::ErrorProfile::kDebugSlack);
        net.bindErrorProfile(&qor);

        // Open loop: every node offers packets on its own Bernoulli
        // schedule regardless of delivery.
        SyntheticConfig tc;
        tc.injection_rate = 0.12;
        tc.data_packet_ratio = 0.5;
        tc.pattern = TrafficPattern::UniformRandom;
        tc.seed = tseed;
        SyntheticDataProvider provider(DataType::Float32, 16, 0.9, 3.0, tseed,
                                       0.7, 8);
        SyntheticTraffic gen(net, tc, provider);
        std::optional<TimedClocked> timed_gen;
        if (traced)
            sim.add(&timed_gen.emplace(gen, lt));
        else
            sim.add(&gen);

        step_cycles(sim, size.warmup, tlt);
        // Dictionaries are warm; collect statistics from here on.
        net.stats().reset();
        const std::uint64_t data_flits0 = net.dataFlitsInjected();
        r.setup_s = seconds_since(t0);

        const std::int64_t t1 = now_ns();
        step_cycles(sim, size.window, tlt);
        r.sim_s = seconds_since(t1);

        const NetworkStats &s = net.stats();
        r.outputs =
            JsonObject()
                .num("traffic_seed", tseed)
                .num("packets_delivered", s.packets_delivered.value())
                .num("data_packets_delivered",
                     s.data_packets_delivered.value())
                .num("notification_packets", s.notification_packets.value())
                .num("data_flits", net.dataFlitsInjected() - data_flits0)
                .num("queue_lat", s.queue_lat.mean())
                .num("net_lat", s.net_lat.mean())
                .num("decode_lat", s.decode_lat.mean())
                .num("total_lat", s.total_lat.mean())
                .num("quality", s.quality.dataQuality())
                .num("exact_fraction", s.quality.exactEncodedFraction())
                .num("approx_fraction", s.quality.approxEncodedFraction())
                .num("compression_ratio", s.quality.compressionRatio())
                .num("qor_samples", qor.samples())
                .num("qor_mean_abs", qor.meanAbs())
                .num("consistency_mismatches",
                     net.codec().consistencyMismatches())
                .raw("activity", activity_json(net.codecActivity()))
                .str();

        if (traced)
            counts = count_network(net, sim.now(), gen.packetsOffered());
    }
    if (traced)
        lt.exit(kPoint);
    r.wall_s = seconds_since(t0);
    if (traced) {
        lt.exit(kRep);
        std::lock_guard<std::mutex> lock(traced->mu);
        fold(*traced, lt, scheme, counts, qor);
        traced->replay_s += static_cast<double>(lt.inclusive(kPoint)) * 1e-9;
        ++traced->reps;
    }
    return r;
}

} // namespace approxnoc::e2e
