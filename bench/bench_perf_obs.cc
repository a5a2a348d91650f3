/**
 * @file
 * PERF -- overhead of the observability subsystem, plus the sample
 * artifacts CI archives (a faulted TRIX-grid VCD and a Chrome trace).
 *
 * The claim under test: instrumented engines pay one predictable branch
 * per notification site when no probe is attached, so compiling the
 * hooks in costs <= 5% even on the hottest workload we have (a
 * pipelined 512-cell spine clock net). Three configurations
 * are timed on identical work, interleaved rep by rep so drift hits
 * them equally:
 *
 *   baseline  - no probe attached (the default everywhere);
 *   null      - NullSimProbe attached (virtual dispatch to empty
 *               bodies: the enabled-but-idle ceiling);
 *   metrics   - MetricsSimProbe attached (full counters, for scale).
 *
 * The hybrid executor's probe seam is measured the same way. Results
 * go to BENCH_obs_overhead.json; the exit code is nonzero when the
 * disabled-path overhead exceeds the budget. Alongside, the bench
 * writes obs_trix_masking.vcd -- an 8x8 TRIX grid masking a dead
 * mid-array link, viewable in GTKWave -- and obs_trace_sample.json, a
 * Chrome trace of a parallel Monte-Carlo sweep.
 */

#include <chrono>
#include <cstdio>

#include "bench_util.hh"
#include "clocktree/buffering.hh"
#include "clocktree/builders.hh"
#include "desim/clock_net.hh"
#include "fault/injector.hh"
#include "fault/trix_grid.hh"
#include "hybrid/network.hh"
#include "layout/generators.hh"
#include "mc/sweeps.hh"
#include "obs/metrics.hh"
#include "obs/probes.hh"
#include "obs/trace.hh"
#include "obs/vcd.hh"

namespace
{

using namespace vsync;

/** Wall-clock milliseconds of one call to @p fn. */
template <typename Fn>
double
millisOf(const Fn &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/** One pipelined-spine run with @p probe attached (may be null). */
std::uint64_t
spineRun(const clocktree::BufferedClockTree &buffered, obs::SimProbe *probe)
{
    desim::Simulator sim;
    sim.setProbe(probe);
    desim::ClockNet net(
        sim, buffered, [](const clocktree::BufferedSite &site, std::size_t) {
            Time d = 0.5 * site.wireFromParent;
            if (site.isBuffer)
                d += 0.2;
            return desim::EdgeDelays::same(d);
        });
    net.drive(2.0, 16);
    return sim.eventsProcessed();
}

struct OverheadRow
{
    std::string config;
    double millis = 0.0;   // best over reps
    double overhead = 0.0; // vs baseline
};

void
emitRows(JsonWriter &json, Table &table, const std::string &key,
         const std::vector<OverheadRow> &rows)
{
    json.key(key).beginArray();
    for (const OverheadRow &row : rows) {
        json.beginObject()
            .keyValue("config", row.config)
            .keyValue("best_ms", row.millis)
            .keyValue("overhead_vs_baseline", row.overhead)
            .endObject();
        table.addRow({key, row.config, Table::fixed(row.millis, 3),
                      Table::fixed(100.0 * row.overhead, 2)});
    }
    json.endArray();
}

/** The faulted-TRIX VCD artifact: a dead link masked by the vote. */
bool
writeTrixVcd(const std::string &path)
{
    const int n = 8;
    desim::Simulator sim;
    fault::TrixGrid grid(sim, n, n, [](int, int, int) { return 1.0; });
    fault::FaultInjector injector(
        sim, fault::FaultPlan::singleDeadBuffer(grid.linkIndex(3, 3, 1)));
    injector.armTrixGrid(grid);

    std::ofstream os(path);
    obs::VcdWriter vcd(os);
    obs::attachTrixGrid(vcd, grid);
    vcd.beginDump();
    grid.pulse();

    bool all_nominal = true;
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            all_nominal = all_nominal &&
                          grid.arrival(r, c) ==
                              fault::TrixGrid::nominalArrival(r, 1.0);
    std::printf("wrote %s (%zu wires, %llu changes; dead link %s)\n",
                path.c_str(), vcd.wireCount(),
                static_cast<unsigned long long>(vcd.changeCount()),
                all_nominal ? "fully masked" : "NOT masked");
    return all_nominal && vcd.changeCount() > 0;
}

/** The Chrome-trace artifact: a traced parallel skew sweep. */
bool
writeTraceSample(const std::string &path, std::uint64_t seed)
{
    obs::Tracer tracer;
    const layout::Layout l = layout::meshLayout(16, 16);
    const auto tree = clocktree::buildHTreeGrid(l, 16, 16);
    const core::SkewKernel kernel(l, tree);

    obs::TracePoolObserver observer(tracer, "trial_chunk");
    ThreadPool pool(4);
    pool.setObserver(&observer);

    mc::McConfig cfg;
    cfg.seed = seed;
    cfg.trials = 512;
    cfg.grain = 8;
    {
        VSYNC_TRACE_SPAN(&tracer, "skew_sweep");
        // The result is deliberately dropped: this bench exercises the
        // tracer, not the sweep statistics.
        static_cast<void>(
            mc::runTrials(pool, cfg, [&](std::uint64_t, Rng &rng) {
                std::vector<Time> arrival;
                return kernel.sampleMaxCommSkew(
                    core::WireDelay{0.05, 0.005}, rng, arrival);
            }));
    }
    pool.setObserver(nullptr);

    std::ofstream os(path);
    tracer.writeChromeJson(os);
    std::printf("wrote %s (%zu events on %zu threads)\n", path.c_str(),
                tracer.eventCount(), tracer.threadCount());
    // How many workers claim chunks is scheduler-dependent (on a 1-CPU
    // host the caller can drain the whole job), so only the span count
    // is gated; per-worker tracks are covered deterministically by
    // test_obs.
    return tracer.eventCount() > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsync;
    const auto opts = BenchOptions::parse(argc, argv);
    const std::uint64_t seed = opts.seedSet ? opts.seed : 0x0b5e7edULL;
    const double budget = 0.05;

    bench::BenchJson result("obs_overhead", seed);
    JsonWriter &json = result.writer();
    json.keyValue("overhead_budget", budget);

    // --- desim: pipelined spine, the hottest desim shape. ---
    const int n = 512;
    const int reps = 15;
    const layout::Layout l = layout::linearLayout(n);
    const auto tree = clocktree::buildSpine(l);
    const auto buffered =
        clocktree::BufferedClockTree::insertBuffers(tree, 4.0);

    obs::MetricsRegistry reg;
    obs::MetricsSimProbe metricsProbe(reg);
    obs::NullSimProbe nullProbe;

    std::vector<OverheadRow> desimRows{
        {"baseline", -1.0, 0.0},
        {"null_probe", -1.0, 0.0},
        {"metrics_probe", -1.0, 0.0}};
    std::uint64_t events = 0;
    // Interleave configurations within each rep so clock drift and
    // cache state hit all three equally; keep the best (least noisy)
    // time per configuration.
    for (int rep = 0; rep < reps; ++rep) {
        obs::SimProbe *probes[] = {nullptr, &nullProbe, &metricsProbe};
        for (std::size_t i = 0; i < 3; ++i) {
            const double ms = millisOf(
                [&]() { events = spineRun(buffered, probes[i]); });
            if (desimRows[i].millis < 0.0 || ms < desimRows[i].millis)
                desimRows[i].millis = ms;
        }
    }
    for (OverheadRow &row : desimRows)
        row.overhead =
            row.millis / desimRows.front().millis - 1.0;

    // --- hybrid: max-plus recurrence with the exec-probe seam. -------
    const layout::Layout hl = layout::meshLayout(32, 32);
    const hybrid::HybridNetwork net(hybrid::partitionGrid(hl, 4.0),
                                    hybrid::HybridParams{});
    obs::NullExecProbe nullExec;
    obs::MetricsExecProbe metricsExec(reg);
    const int rounds = 256;

    std::vector<OverheadRow> hybridRows{
        {"baseline", -1.0, 0.0},
        {"null_probe", -1.0, 0.0},
        {"metrics_probe", -1.0, 0.0}};
    for (int rep = 0; rep < reps; ++rep) {
        obs::ExecProbe *probes[] = {nullptr, &nullExec, &metricsExec};
        for (std::size_t i = 0; i < 3; ++i) {
            const double ms = millisOf([&]() {
                net.simulate(rounds, nullptr, nullptr, probes[i]);
            });
            if (hybridRows[i].millis < 0.0 || ms < hybridRows[i].millis)
                hybridRows[i].millis = ms;
        }
    }
    for (OverheadRow &row : hybridRows)
        row.overhead =
            row.millis / hybridRows.front().millis - 1.0;

    bench::headline(
        "Observability overhead: pipelined spine clock net (512 sites, "
        "16 cycles) and hybrid max-plus (64 elements, 256 rounds), "
        "best of " +
        std::to_string(reps) + " interleaved reps");
    Table table("probe overhead",
                {"workload", "config", "best ms", "overhead %"});
    json.keyValue("spine_sites", n)
        .keyValue("spine_events_per_run", events)
        .keyValue("reps", reps);
    emitRows(json, table, "desim", desimRows);
    emitRows(json, table, "hybrid", hybridRows);
    emitTable(table, opts);

    // The acceptance gate: the *disabled* configuration (no probe ever
    // attached) is what every non-observability build runs, and the
    // null-probe row bounds the enabled-but-idle cost. Only the
    // null-probe row is budgeted; the metrics row is informational.
    const double worstNull =
        std::max(desimRows[1].overhead, hybridRows[1].overhead);
    const bool ok = worstNull <= budget;

    // --- Sample artifacts for CI. ------------------------------------
    const bool vcd_ok = writeTrixVcd("obs_trix_masking.vcd");
    const bool trace_ok =
        writeTraceSample("obs_trace_sample.json", seed);

    json.keyValue("null_probe_overhead_worst", worstNull)
        .keyValue("within_budget", ok)
        .keyValue("vcd_artifact_ok", vcd_ok)
        .keyValue("trace_artifact_ok", trace_ok);

    std::printf(
        "\nwrote BENCH_obs_overhead.json (worst null-probe overhead "
        "%.2f%% against a %.0f%% budget: %s)\n",
        100.0 * worstNull, 100.0 * budget,
        ok ? "within budget" : "OVER BUDGET");
    return ok && vcd_ok && trace_ok ? 0 : 1;
}
