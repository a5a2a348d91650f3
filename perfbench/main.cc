/**
 * @file
 * The repository benchmark's driver.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <file>]
 *
 * Every run sets up and measures all four paths -- skew sweeps,
 * resilience curves, the open-loop server and the fleet -- so every
 * run reports every metric; the workload names the path that gets
 * most of the --seconds budget, the others run a short companion
 * measurement, in four interleaved rounds. Set-up is repeated five
 * times and setup_s is the median. With --trace 0 the result carries
 * the end-to-end metrics;
 * with --trace 1 the run also records spans around every layer call
 * and reports the per-layer metrics instead, plus the tracing overhead
 * against an untraced pass over the workload's own path.
 *
 * Before the result the run prints a host/build fingerprint and each
 * path's output digest. The last line of stdout is the result object;
 * the exit status is nonzero when any correctness check failed.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/json.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace
{

using namespace perfbench;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics: BENCHMARK.json "end_to_end", same order. */
constexpr std::array<MetricSpec, 8> endToEnd{{
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "frac"},
    {"skew.small_trials_per_s", "1/s"},
    {"skew.large_trials_per_s", "1/s"},
    {"resilience.htree_trials_per_s", "1/s"},
    {"resilience.trix_trials_per_s", "1/s"},
    {"fleet.batch_s", "s"},
}};

/**
 * Per-layer metrics: BENCHMARK.json "per_layer", same order. The
 * open-loop latencies and max rate lead the list: on a shared virtual
 * host they vary too much from run to run to carry an end-to-end
 * bound, so they are reported here, without one.
 */
constexpr std::array<MetricSpec, 61> perLayer{{
    {"serve.p50_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.cold_p50_ms", "ms"},
    {"serve.max_rps", "1/s"},
    {"common.rng.fill_ns_per_draw", "ns"},
    {"common.rng.draws", "count"},
    {"common.pool.spawn_ms", "ms"},
    {"core.compile_ms", "ms"},
    {"core.autotune_ms", "ms"},
    {"core.block_width", "count"},
    {"core.block_width_small", "count"},
    {"core.arrivals_block_ns_per_node_trial", "ns"},
    {"core.propagate_ns_per_node_trial", "ns"},
    {"core.fold_block_ns_per_pair_trial", "ns"},
    {"core.arrival_skew_block_us", "us"},
    {"mc.sweep_ms", "ms"},
    {"mc.sched_overhead_frac", "frac"},
    {"mc.trials", "count"},
    {"mc.rng_draws", "count"},
    {"mc.resilience.compile_scenario_ms", "ms"},
    {"mc.resilience.trial_block_us", "us"},
    {"fault.plan_us", "us"},
    {"fault.tree_sim_us", "us"},
    {"fault.grid_sim_us", "us"},
    {"fault.armed.dead_buffer", "count"},
    {"fault.armed.delay_drift", "count"},
    {"fault.armed.stuck_at_net", "count"},
    {"fault.armed.transient_glitch", "count"},
    {"serve.cache.hit_ratio", "frac"},
    {"serve.cache.hits", "count"},
    {"serve.cache.misses", "count"},
    {"serve.cache.evictions", "count"},
    {"serve.cache.compile_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.pool.active_workers_hwm", "count"},
    {"serve.pool.queue_depth_hwm", "count"},
    {"net.parse_us", "us"},
    {"net.encode_us", "us"},
    {"net.decode_us", "us"},
    {"net.queue_wait_ms", "ms"},
    {"net.transport_ms", "ms"},
    {"net.requests.accepted", "count"},
    {"net.requests.shed", "count"},
    {"net.requests.bad", "count"},
    {"net.bytes.in", "B"},
    {"net.bytes.out", "B"},
    {"loadgen.late_ms_p99", "ms"},
    {"loadgen.step_refused", "count"},
    {"dist.shard_rtt_ms", "ms"},
    {"dist.fold_ms", "ms"},
    {"dist.shard_encode_us", "us"},
    {"dist.shard_decode_us", "us"},
    {"dist.hedge_waste_ratio", "frac"},
    {"dist.worker_busy_frac", "frac"},
    {"dist.shards_per_batch", "count"},
    {"dist.dispatched_per_batch", "count"},
    {"dist.retried_per_batch", "count"},
    {"dist.hedged_per_batch", "count"},
    {"dist.lost_per_batch", "count"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.spans", "count"},
}};

/** The sections, in measuring order. */
enum SectionId : std::size_t
{
    Skew,
    Resilience,
    Serve,
    Fleet,
    SectionCount
};

struct Workload
{
    const char *name;
    SectionId focus;
};

constexpr std::array<Workload, 4> workloads{{
    {"skew_sweep", Skew},
    {"resilience_curve", Resilience},
    {"serve_open_loop", Serve},
    {"fleet_batch", Fleet},
}};

/** Share of --seconds a section gets when it is not the focus. */
constexpr std::array<double, SectionCount> companionShare{0.08, 0.10, 0.20,
                                                          0.08};
/** Share of --seconds each section's layer probes get (traced runs). */
constexpr double layerShare = 0.05;
/** Set-ups per run; setup_s is their median. */
constexpr int setupRepeats = 5;
/** Measuring rounds per run; each section runs once per round. */
constexpr int rounds = 4;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string spansPath;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveSeed = false;
    bool haveSeconds = false;
    bool haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = end && *end == '\0' && !v.empty();
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            haveSeconds = end && *end == '\0' && a.seconds > 0.0 &&
                          a.seconds <= 120.0;
        } else if (k == "--trace") {
            a.trace = v == "1";
            haveTrace = v == "0" || v == "1";
        } else if (k == "--spans") {
            a.spansPath = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && haveSeed &&
           haveSeconds && haveTrace;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

void
printFingerprint(const Args &a, unsigned nproc, unsigned width)
{
    std::ostringstream os;
    vsync::JsonWriter w(os, vsync::JsonWriter::Style::Compact);
    w.beginObject().key("fingerprint").beginObject()
        .keyValue("cpu", cpuModel())
        .keyValue("nproc", nproc)
        .keyValue("compiler", std::string("gcc ") + __VERSION__)
        .keyValue("build_type", PERFBENCH_BUILD_TYPE)
        .keyValue("cxx_flags", PERFBENCH_CXX_FLAGS)
        .keyValue("pool_width", width)
        .keyValue("fleet_worker_threads", 1u)
        .keyValue("workload", a.workload)
        .keyValue("seed", a.seed)
        .keyValue("seconds", a.seconds)
        .keyValue("trace", a.trace)
        .endObject().endObject();
    std::cout << os.str() << "\n";
}

void
printOutputs(const Report &r)
{
    std::ostringstream os;
    vsync::JsonWriter w(os, vsync::JsonWriter::Style::Compact);
    w.beginObject().key("outputs").beginObject();
    for (const auto &[name, text] : r.outputs)
        w.keyValue(name, text);
    w.endObject()
        .keyValue("note",
                  "simulated statistics of the Section III wire-delay and "
                  "fault models; not validated against hardware")
        .endObject();
    std::cout << os.str() << "\n";
}

/** Count, total and self milliseconds of every span name. */
void
printSpanTotals(const Tracer &tracer)
{
    std::ostringstream os;
    vsync::JsonWriter w(os, vsync::JsonWriter::Style::Compact);
    w.beginObject().key("spans").beginObject();
    for (const auto &[name, t] : tracer.allTotals())
        w.key(name).beginObject()
            .keyValue("count", t.count)
            .keyValue("total_ms", t.totalMs)
            .keyValue("self_ms", t.selfMs)
            .endObject();
    w.endObject().endObject();
    std::cout << os.str() << "\n";
}

/** Print the result line; false when a listed metric is missing. */
template <std::size_t N>
bool
printResult(Report &r, const std::array<MetricSpec, N> &specs)
{
    bool complete = true;
    std::ostringstream os;
    vsync::JsonWriter w(os, vsync::JsonWriter::Style::Compact);
    w.beginObject().keyValue("correct", r.correct)
        .keyValue("attempted", r.attempted)
        .keyValue("failed", r.failed)
        .key("metrics").beginObject();
    for (const MetricSpec &m : specs) {
        const auto it = r.metrics.find(m.name);
        const double v = it == r.metrics.end() ? NAN : it->second.value;
        if (!std::isfinite(v)) {
            std::cerr << "perfbench: metric " << m.name
                      << " was not measured\n";
            complete = false;
        }
        w.key(m.name).beginObject()
            .keyValue("value", std::isfinite(v) ? v : -1.0)
            .keyValue("unit", m.unit)
            .endObject();
    }
    w.endObject().endObject();
    std::cout << os.str() << std::endl;
    return complete;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--spans <file>]\n";
        return 2;
    }
    const Workload *workload = nullptr;
    for (const Workload &w : workloads)
        if (args.workload == w.name)
            workload = &w;
    if (!workload) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned width = std::min(4u, nproc);
    printFingerprint(args, nproc, width);

    Report report;
    Tracer tracer;
    Env env;
    env.seed = args.seed;
    env.width = width;
    env.tracer = &tracer;
    env.report = &report;

    std::array<std::unique_ptr<Section>, SectionCount> sections;
    std::vector<double> setupSeconds;
    for (int k = 0; k < setupRepeats; ++k) {
        // Return the previous set-up's memory first, so peak RSS does
        // not depend on how the heap happened to fragment.
        for (auto &s : sections)
            s.reset();
        malloc_trim(0);
        const Clock::time_point t0 = Clock::now();
        sections[Skew] = makeSkewSection(env);
        sections[Resilience] = makeResilienceSection(env);
        sections[Serve] = makeServeSection(env);
        sections[Fleet] = makeFleetSection(env);
        setupSeconds.push_back(secondsSince(t0));
    }
    report.set("setup_s", median(setupSeconds), "s");

    std::array<double, SectionCount> budget{};
    double others = 0.0;
    for (std::size_t i = 0; i < SectionCount; ++i)
        if (i != workload->focus)
            others += budget[i] = companionShare[i] * args.seconds;
    budget[workload->focus] = args.seconds - others;

    // Measure the sections in interleaved rounds; returns each
    // section's primary operation cost (0 for sections not measured).
    const auto measureRounds = [&](const std::array<double, SectionCount>
                                       &seconds) {
        std::array<double, SectionCount> cost{};
        for (std::size_t i = 0; i < SectionCount; ++i)
            if (seconds[i] > 0.0)
                sections[i]->begin();
        for (int r = 0; r < rounds; ++r)
            for (std::size_t i = 0; i < SectionCount; ++i)
                if (seconds[i] > 0.0)
                    sections[i]->measure(seconds[i] / rounds);
        for (std::size_t i = 0; i < SectionCount; ++i)
            if (seconds[i] > 0.0)
                cost[i] = sections[i]->finish();
        return cost;
    };

    if (!args.trace) {
        measureRounds(budget);
    } else {
        // The focus path once untraced and once traced: the difference
        // is the tracing overhead. Every other path runs traced.
        const std::size_t f = workload->focus;
        std::array<double, SectionCount> focusOnly{};
        focusOnly[f] = budget[f] / 2;
        const double untraced = measureRounds(focusOnly)[f];
        budget[f] /= 2;
        tracer.setEnabled(true);
        const double traced = measureRounds(budget)[f];
        for (auto &s : sections)
            s->layers(layerShare * args.seconds);
        tracer.setEnabled(false);
        report.set("obs.trace_overhead_frac",
                   untraced > 0.0 ? traced / untraced - 1.0 : 0.0, "frac");
        report.set("obs.spans", static_cast<double>(tracer.size()),
                   "count");
        if (!args.spansPath.empty() && !tracer.write(args.spansPath))
            std::cerr << "perfbench: cannot write " << args.spansPath
                      << "\n";
    }
    for (auto &s : sections)
        s.reset();

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    report.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
               "MB");
    report.set("ok_frac",
               report.attempted
                   ? 1.0 - static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted)
                   : 0.0,
               "frac");

    printOutputs(report);
    if (args.trace)
        printSpanTotals(tracer);
    for (const std::string &e : report.errors)
        std::cerr << "perfbench: check failed: " << e << "\n";
    const bool complete = args.trace ? printResult(report, perLayer)
                                     : printResult(report, endToEnd);
    if (!complete)
        return 2;
    return report.correct ? 0 : 1;
}
