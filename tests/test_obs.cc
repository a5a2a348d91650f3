/**
 * @file
 * Tests for the observability subsystem: metrics registry determinism,
 * log routing, Chrome-trace output, VCD waveform export and
 * the engine probes.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "clocktree/builders.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "desim/clock_net.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "fault/trix_grid.hh"
#include "hybrid/network.hh"
#include "hybrid/partition.hh"
#include "layout/generators.hh"
#include "mc/montecarlo.hh"
#include "mc/resilience.hh"
#include "obs/metrics.hh"
#include "obs/probes.hh"
#include "obs/trace.hh"
#include "obs/vcd.hh"

namespace
{

using namespace vsync;

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeBasics)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("c");
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);

    obs::Gauge &g = reg.gauge("g");
    g.set(2.5);
    g.add(1.5);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
    g.recordMax(3.0); // below current value: no effect
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
    g.recordMax(7.0);
    EXPECT_DOUBLE_EQ(g.value(), 7.0);

    // Lookup returns the same metric.
    reg.counter("c").inc();
    EXPECT_EQ(c.value(), 6u);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, HistogramBucketing)
{
    obs::MetricsRegistry reg;
    obs::Histogram &h = reg.histogram("h", {1.0, 2.0, 4.0});
    h.observe(0.5);  // <= 1.0
    h.observe(1.0);  // <= 1.0 (inclusive upper bound)
    h.observe(1.5);  // <= 2.0
    h.observe(4.0);  // <= 4.0
    h.observe(99.0); // overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.totalCount(), 5u);
}

TEST(Metrics, JsonListsMetricsSortedByName)
{
    obs::MetricsRegistry reg;
    reg.counter("z.last").inc();
    reg.gauge("a.first").set(1.0);
    reg.histogram("m.middle", {1.0}).observe(0.5);
    const std::string json = reg.toJsonString();
    const std::size_t a = json.find("a.first");
    const std::size_t m = json.find("m.middle");
    const std::size_t z = json.find("z.last");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(m, std::string::npos);
    ASSERT_NE(z, std::string::npos);
    EXPECT_LT(a, m);
    EXPECT_LT(m, z);
    EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
    EXPECT_NE(json.find("\"type\": \"gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
}

/** The same concurrent update workload against a fresh registry. */
std::string
updateRegistryWith(unsigned threads)
{
    obs::MetricsRegistry reg;
    obs::Counter &events = reg.counter("events");
    obs::Gauge &hwm = reg.gauge("hwm");
    obs::Histogram &lat = reg.histogram("latency", {10.0, 100.0, 1000.0});
    ThreadPool pool(threads);
    pool.parallelForRange(10000, 64,
                          [&](std::size_t begin, std::size_t end) {
                              for (std::size_t i = begin; i < end; ++i) {
                                  events.inc(i % 3 + 1);
                                  hwm.recordMax(
                                      static_cast<double>(i % 977));
                                  lat.observe(
                                      static_cast<double>(i % 1500));
                              }
                          });
    return reg.toJsonString();
}

TEST(Metrics, JsonBitIdenticalAcrossThreadCounts)
{
    const std::string one = updateRegistryWith(1);
    EXPECT_EQ(one, updateRegistryWith(2));
    EXPECT_EQ(one, updateRegistryWith(8));
}

// ---------------------------------------------------------------- logging

/** Restores the global logging configuration on scope exit. */
struct LogStateGuard
{
    LogLevel level = logLevel();
    ~LogStateGuard()
    {
        setLogLevel(level);
        setLogSink({});
    }
};

/** Log lines routed through setLogSink, in order. */
using LogLines = std::vector<std::pair<LogLevel, std::string>>;

/** Route every surviving log line into @p lines. */
void
captureLogLines(LogLines &lines)
{
    setLogSink([&lines](LogLevel level, const std::string &line) {
        lines.emplace_back(level, line);
    });
}

/** Number of captured lines at exactly @p level. */
std::size_t
countAtLevel(const LogLines &lines, LogLevel level)
{
    return static_cast<std::size_t>(std::count_if(
        lines.begin(), lines.end(),
        [level](const auto &entry) { return entry.first == level; }));
}

TEST(Logging, ParseLogLevel)
{
    EXPECT_EQ(parseLogLevel("debug", LogLevel::Info), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("INFO", LogLevel::Error), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("Warn", LogLevel::Info), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("warning", LogLevel::Info), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("error", LogLevel::Info), LogLevel::Error);
    EXPECT_EQ(parseLogLevel("2", LogLevel::Info), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel(nullptr, LogLevel::Warn), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("nonsense", LogLevel::Error),
              LogLevel::Error);
}

TEST(Logging, LevelFilterDropsBelowThreshold)
{
    LogStateGuard guard;
    LogLines lines;
    captureLogLines(lines);

    setLogLevel(LogLevel::Warn);
    inform("not emitted");
    debugLog("not emitted");
    warn("emitted %d", 1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines.front().second, "warn: emitted 1");
    EXPECT_EQ(countAtLevel(lines, LogLevel::Info), 0u);
    EXPECT_EQ(countAtLevel(lines, LogLevel::Warn), 1u);

    lines.clear();
    setLogLevel(LogLevel::Debug);
    debugLog("now visible");
    inform("also visible");
    EXPECT_EQ(countAtLevel(lines, LogLevel::Debug), 1u);
    EXPECT_EQ(countAtLevel(lines, LogLevel::Info), 1u);
}

TEST(Logging, EnvVariableSetsLevel)
{
    LogStateGuard guard;
    ::setenv("VSYNC_LOG_LEVEL", "error", 1);
    initLogLevelFromEnv();
    EXPECT_EQ(logLevel(), LogLevel::Error);

    LogLines lines;
    captureLogLines(lines);
    warn("dropped at error level");
    EXPECT_TRUE(lines.empty());

    ::unsetenv("VSYNC_LOG_LEVEL");
    initLogLevelFromEnv();
    EXPECT_EQ(logLevel(), LogLevel::Info);
}

TEST(Logging, DetachedSinkRestoresStderrPath)
{
    LogStateGuard guard;
    LogLines lines;
    captureLogLines(lines);
    setLogSink({});
    setLogLevel(LogLevel::Error); // silence the line below
    warn("goes nowhere");
    EXPECT_TRUE(lines.empty());
}

// ---------------------------------------------------------------- tracing

/** All "ts" values of a rendered Chrome trace, in document order. */
std::vector<std::uint64_t>
timestampsOf(const std::string &json)
{
    std::vector<std::uint64_t> ts;
    std::size_t pos = 0;
    const std::string key = "\"ts\": ";
    while ((pos = json.find(key, pos)) != std::string::npos) {
        pos += key.size();
        ts.push_back(std::strtoull(json.c_str() + pos, nullptr, 10));
    }
    return ts;
}

TEST(Trace, ChromeJsonIsBalancedAndMonotonic)
{
    obs::Tracer tracer;
    tracer.nameCurrentThread("main");
    {
        VSYNC_TRACE_SPAN(&tracer, "outer");
        {
            VSYNC_TRACE_SPAN(&tracer, "inner");
            // Spans are timed in whole microseconds, and one shorter
            // than that is written as an instant; both spans must last
            // long enough to be written as complete ("X") events.
            std::this_thread::sleep_for(std::chrono::microseconds(2));
        }
        tracer.recordInstant("marker");
    }
    EXPECT_EQ(tracer.eventCount(), 3u);
    EXPECT_EQ(tracer.threadCount(), 1u);

    std::ostringstream os;
    tracer.writeChromeJson(os);
    const std::string json = os.str();

    // Structural validity: balanced braces/brackets (no strings in the
    // document contain them) and the required top-level keys.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"main\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);

    // Events must be sorted by start timestamp.
    const auto ts = timestampsOf(json);
    ASSERT_EQ(ts.size(), 3u);
    for (std::size_t i = 1; i < ts.size(); ++i)
        EXPECT_GE(ts[i], ts[i - 1]);
}

TEST(Trace, NullTracerSpansAreNoops)
{
    VSYNC_TRACE_SPAN(nullptr, "disabled");
    obs::Span manual(nullptr, "also disabled");
    SUCCEED();
}

TEST(Trace, PoolObserverPutsWorkersOnOwnTracks)
{
    obs::Tracer tracer;
    obs::TracePoolObserver observer(tracer, "trial");
    ThreadPool pool(4);
    pool.setObserver(&observer);
    std::atomic<std::size_t> done{0};
    std::atomic<int> threadsSeen{0};
    // Hold every chunk until a second thread has claimed one, so the
    // caller cannot race through all chunks before a worker wakes.
    // Deadlock-free: workers are notified before the caller starts and
    // there are more chunks (16) than the caller can hold (1).
    pool.parallelForRange(64, 4,
                          [&](std::size_t begin, std::size_t end) {
                              static thread_local bool counted = false;
                              if (!counted) {
                                  counted = true;
                                  threadsSeen.fetch_add(1);
                              }
                              while (threadsSeen.load() < 2)
                                  std::this_thread::yield();
                              done.fetch_add(end - begin);
                          });
    pool.setObserver(nullptr);
    EXPECT_EQ(done.load(), 64u);
    EXPECT_GE(tracer.eventCount(), 64u / 4u); // one span per chunk
    EXPECT_GE(tracer.threadCount(), 2u);      // >= 2 distinct tracks

    std::ostringstream os;
    tracer.writeChromeJson(os);
    const std::string json = os.str();
    // Two distinct threads ran chunks and at most one of them is the
    // caller, so at least one named worker track must appear. (The
    // caller itself can lose every chunk to the workers, so its track
    // is not guaranteed.)
    EXPECT_NE(json.find("\"worker-"), std::string::npos);
    EXPECT_NE(json.find("trial[0,4)"), std::string::npos);
}

TEST(Trace, SerialFastPathStillObserved)
{
    obs::Tracer tracer;
    obs::TracePoolObserver observer(tracer, "serial");
    ThreadPool pool(1);
    pool.setObserver(&observer);
    pool.parallelForRange(8, 16, [](std::size_t, std::size_t) {});
    pool.setObserver(nullptr);
    EXPECT_EQ(tracer.eventCount(), 1u); // one chunk covering [0,8)
    std::ostringstream os;
    tracer.writeChromeJson(os);
    EXPECT_NE(os.str().find("serial[0,8)"), std::string::npos);
}

// -------------------------------------------------------------------- VCD

/** Drive a 2-level (4x4) H-tree clock net into a VCD document. */
std::string
htreeVcd()
{
    const layout::Layout l = layout::meshLayout(4, 4);
    const clocktree::ClockTree tree = clocktree::buildHTreeGrid(l, 4, 4);
    const auto btree =
        clocktree::BufferedClockTree::insertBuffers(tree, 2.0);

    desim::Simulator sim;
    desim::ClockNet net(
        sim, btree, [](const clocktree::BufferedSite &site, std::size_t) {
            return desim::EdgeDelays::same(
                0.5 * site.wireFromParent + (site.isBuffer ? 0.2 : 0.0));
        });

    std::ostringstream os;
    obs::VcdWriter vcd(os);
    obs::attachClockNet(vcd, net);
    vcd.beginDump();
    net.drive(4.0, 2);
    EXPECT_GT(vcd.changeCount(), 0u);
    EXPECT_EQ(vcd.wireCount(), net.siteCount());
    return os.str();
}

TEST(Vcd, GoldenHtree)
{
    const std::string got = htreeVcd();
    const std::string path =
        std::string(VSYNC_GOLDEN_DIR) + "/htree_2level.vcd";

    if (std::getenv("VSYNC_REGEN_GOLDEN")) {
        std::ofstream out(path);
        out << got;
        ASSERT_TRUE(out.good()) << "failed to write " << path;
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with VSYNC_REGEN_GOLDEN=1 ./test_obs)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "VCD output diverged from the golden file; if intentional, "
           "regenerate with VSYNC_REGEN_GOLDEN=1 ./test_obs";
}

TEST(Vcd, DeterministicAcrossRuns)
{
    EXPECT_EQ(htreeVcd(), htreeVcd());
}

TEST(Vcd, IdCodesAreCompactAndUnique)
{
    EXPECT_EQ(obs::VcdWriter::idCode(0), "!");
    EXPECT_EQ(obs::VcdWriter::idCode(93), "~");
    EXPECT_EQ(obs::VcdWriter::idCode(94), "!\"");
    EXPECT_NE(obs::VcdWriter::idCode(1), obs::VcdWriter::idCode(95));
}

/** Every line of the value-change section after the header. */
std::vector<std::string>
linesOf(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

TEST(Vcd, FaultedTrixGridDumpIsValidAndMasked)
{
    const int n = 8;
    desim::Simulator sim;
    fault::TrixGrid grid(sim, n, n, [](int, int, int) { return 1.0; });

    // Kill one mid-array link; the median vote must mask it.
    fault::FaultInjector injector(
        sim, fault::FaultPlan::singleDeadBuffer(grid.linkIndex(3, 3, 1)));
    injector.armTrixGrid(grid);
    EXPECT_EQ(injector.armed(), 1u);

    std::ostringstream os;
    obs::VcdWriter vcd(os);
    obs::attachTrixGrid(vcd, grid);
    vcd.beginDump();
    grid.pulse();

    // Masking despite the dead link: every node fires at the nominal
    // arrival for its layer.
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            EXPECT_DOUBLE_EQ(grid.arrival(r, c),
                             fault::TrixGrid::nominalArrival(r, 1.0))
                << "node (" << r << "," << c << ")";

    // Structural VCD validity: header order, timescale, declarations
    // matching the wire count, monotonic #ticks, transitions recorded.
    const std::string text = os.str();
    const auto lines = linesOf(text);
    ASSERT_GT(lines.size(), 5u);
    EXPECT_EQ(lines[0], "$comment vlsisync waveform dump $end");
    EXPECT_EQ(lines[1], "$timescale 1ps $end");
    EXPECT_EQ(lines[2], "$scope module vlsisync $end");
    EXPECT_NE(text.find("$var wire 1 ! root $end"), std::string::npos);
    EXPECT_NE(text.find(" n3_3 $end"), std::string::npos);
    EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(text.find("$dumpvars"), std::string::npos);

    std::size_t vars = 0;
    long long lastTick = -1;
    bool sawTransition = false;
    for (const std::string &line : lines) {
        if (line.rfind("$var wire 1 ", 0) == 0)
            ++vars;
        if (!line.empty() && line[0] == '#') {
            const long long tick = std::strtoll(line.c_str() + 1,
                                                nullptr, 10);
            EXPECT_GT(tick, lastTick);
            lastTick = tick;
            sawTransition = true;
        }
    }
    EXPECT_EQ(vars, vcd.wireCount());
    EXPECT_EQ(vcd.wireCount(),
              static_cast<std::size_t>(n * n + 1)); // nodes + root
    EXPECT_TRUE(sawTransition);
    EXPECT_GT(vcd.changeCount(), 0u);
    // Last layer fires at nominalArrival(7) = 8 ns = tick 8000.
    EXPECT_EQ(lastTick, 8000);
}

// ------------------------------------------------------------ sim probes

TEST(Probes, SimProbeCountsEventsAndFires)
{
    const layout::Layout l = layout::meshLayout(4, 4);
    const clocktree::ClockTree tree = clocktree::buildHTreeGrid(l, 4, 4);
    const auto btree =
        clocktree::BufferedClockTree::insertBuffers(tree, 2.0);

    obs::MetricsRegistry reg;
    obs::MetricsSimProbe probe(reg);

    desim::Simulator sim;
    sim.setProbe(&probe);
    EXPECT_EQ(sim.probe(), &probe);
    desim::ClockNet net(
        sim, btree, [](const clocktree::BufferedSite &, std::size_t) {
            return desim::EdgeDelays::same(0.1);
        });
    net.drive(2.0, 4);
    sim.setProbe(nullptr);

    EXPECT_EQ(reg.counter("desim.events").value(),
              sim.eventsProcessed());
    EXPECT_GT(reg.counter("desim.element_fires").value(), 0u);
    EXPECT_GE(reg.counter("desim.runs").value(), 1u);
    EXPECT_GE(reg.gauge("desim.queue_depth_hwm").value(), 1.0);
    EXPECT_EQ(reg.gauge("desim.elements_seen").value(),
              static_cast<double>(net.elementCount()));
    // 4 cycles = 8 edges through every element.
    EXPECT_DOUBLE_EQ(reg.gauge("desim.max_fires_per_element").value(),
                     8.0);
    EXPECT_DOUBLE_EQ(reg.gauge("desim.sim_time_ns").value(), sim.now());
}

TEST(Probes, DetachedProbeChangesNothing)
{
    desim::Simulator plain, probed;
    obs::NullSimProbe null_probe;
    probed.setProbe(&null_probe);
    for (desim::Simulator *sim : {&plain, &probed}) {
        sim->schedule(1.0, [sim]() { sim->schedule(1.0, []() {}); });
        sim->run();
    }
    EXPECT_EQ(plain.eventsProcessed(), probed.eventsProcessed());
    EXPECT_EQ(plain.now(), probed.now());
}

TEST(Probes, ExecProbeRecordsWaitsAndRounds)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const hybrid::HybridNetwork net(hybrid::partitionGrid(l, 4.0),
                                    hybrid::HybridParams{});
    obs::MetricsRegistry reg;
    obs::MetricsExecProbe probe(reg);

    const int rounds = 8;
    const hybrid::HybridRunResult res =
        net.simulate(rounds, nullptr, nullptr, &probe);

    EXPECT_EQ(reg.counter("hybrid.rounds").value(),
              static_cast<std::uint64_t>(rounds));
    // Multi-element arrays always stall on neighbours after round 0.
    EXPECT_GT(reg.counter("hybrid.handshake_waits").value(), 0u);
    EXPECT_GT(reg.gauge("hybrid.stall_ns").value(), 0.0);
    EXPECT_GE(reg.gauge("hybrid.stall_ns").value(),
              reg.gauge("hybrid.max_stall_ns").value());
    EXPECT_DOUBLE_EQ(reg.gauge("hybrid.last_completion_ns").value(),
                     res.completionTime);
}

TEST(Probes, ExecProbeDoesNotPerturbSimulation)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const hybrid::HybridNetwork net(hybrid::partitionGrid(l, 4.0),
                                    hybrid::HybridParams{});
    obs::MetricsRegistry reg;
    obs::MetricsExecProbe probe(reg);
    const auto bare = net.simulate(16);
    const auto observed = net.simulate(16, nullptr, nullptr, &probe);
    EXPECT_EQ(bare.completionTime, observed.completionTime);
    EXPECT_EQ(bare.steadyCycle, observed.steadyCycle);
    EXPECT_EQ(bare.lastCompletion, observed.lastCompletion);
}

// ------------------------------------------------------------- mc metrics

TEST(McMetrics, RunTrialsRecordsSweepMetrics)
{
    obs::MetricsRegistry reg;
    mc::McConfig cfg;
    cfg.trials = 100;
    cfg.threads = 2;
    cfg.metrics = &reg;
    cfg.metricsName = "unit";
    const mc::McResult r = mc::runTrials(
        cfg, [](std::uint64_t, Rng &rng) { return rng.uniform(); });
    EXPECT_EQ(r.samples.size(), 100u);
    EXPECT_EQ(reg.counter("mc.unit.trials").value(), 100u);
    // Each trial draws exactly once from its substream.
    EXPECT_EQ(reg.counter("mc.unit.rng_draws").value(), 100u);
    EXPECT_GT(reg.gauge("mc.unit.wall_ms").value(), 0.0);
    EXPECT_GT(reg.gauge("mc.unit.trials_per_s").value(), 0.0);
}

TEST(McMetrics, MetricsDoNotPerturbSamples)
{
    obs::MetricsRegistry reg;
    mc::McConfig bare;
    bare.trials = 64;
    mc::McConfig observed = bare;
    observed.metrics = &reg;
    const mc::TrialFn fn = [](std::uint64_t, Rng &rng) {
        return rng.normal();
    };
    EXPECT_TRUE(mc::runTrials(bare, fn)
                    .bitIdentical(mc::runTrials(observed, fn)));
}

TEST(McMetrics, RngDrawCounter)
{
    Rng rng(42);
    EXPECT_EQ(rng.draws(), 0u);
    rng.next();
    EXPECT_EQ(rng.draws(), 1u);
    rng.uniform();
    EXPECT_EQ(rng.draws(), 2u);
    rng.normal(); // Box-Muller: at least two draws
    EXPECT_GE(rng.draws(), 4u);
}

TEST(McMetrics, ResilienceSweepCountsFaultsByKind)
{
    const layout::Layout l = layout::meshLayout(4, 4);
    obs::MetricsRegistry reg;
    mc::McConfig cfg;
    cfg.trials = 16;
    cfg.threads = 2;
    cfg.metrics = &reg;
    const mc::ResiliencePoint point = mc::resilienceAtRate(
        l, 4, 4, mc::DistributionKind::TrixGrid, 0.2,
        mc::ResilienceConfig{}, cfg);

    // The shared runChunks loop records the resilience sweep like any
    // other: every trial, and an exact draw count -- each trial's plan
    // substreams plus one delay draw per grid link (3 per node).
    EXPECT_EQ(reg.counter("mc.sweep.trials").value(), cfg.trials);
    const fault::FaultUniverse universe = fault::TrixGrid::universe(4, 4);
    std::uint64_t want_draws = 0;
    for (std::uint64_t i = 0; i < cfg.trials; ++i) {
        Rng plan_rng =
            Rng::forTrial(cfg.seed, i).deriveStream(mc::planSalt);
        want_draws += fault::FaultPlan::generate(
                          universe, fault::FaultRates::mixed(0.2), plan_rng)
                          .draws() +
                      3 * 16;
    }
    EXPECT_EQ(reg.counter("mc.sweep.rng_draws").value(), want_draws);

    // ... and that count is schedule-independent.
    obs::MetricsRegistry serial_reg;
    mc::McConfig serial = cfg;
    serial.threads = 1;
    serial.metrics = &serial_reg;
    (void)mc::resilienceAtRate(l, 4, 4, mc::DistributionKind::TrixGrid,
                               0.2, mc::ResilienceConfig{}, serial);
    EXPECT_EQ(serial_reg.counter("mc.sweep.rng_draws").value(),
              reg.counter("mc.sweep.rng_draws").value());

    std::uint64_t by_kind = 0;
    for (int k = 0; k < fault::faultKindCount; ++k)
        by_kind += reg.counter("mc.resilience.faults." +
                               fault::faultKindName(
                                   static_cast<fault::FaultKind>(k)))
                       .value();
    // The counters must agree with the per-trial fault totals.
    EXPECT_DOUBLE_EQ(static_cast<double>(by_kind),
                     point.meanFaults * static_cast<double>(cfg.trials));
    EXPECT_GT(by_kind, 0u);
}

TEST(McMetrics, HybridSurvivalSweepCountsPlanAndJitterDraws)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    hybrid::HybridParams params;
    params.jitterAmplitude = 0.1;
    const hybrid::HybridNetwork net(hybrid::partitionGrid(l, 4.0), params);
    constexpr int rounds = 6;
    constexpr double rate = 0.05;
    obs::MetricsRegistry reg;
    mc::McConfig cfg;
    cfg.trials = 12;
    cfg.threads = 2;
    cfg.metrics = &reg;
    cfg.metricsName = "hybrid";
    (void)mc::hybridSurvivalSweep(net, rate, rounds, cfg);

    // Replay every trial: its plan's substream draws plus its jitter
    // stream (one draw per element per round, whatever the cut set).
    fault::FaultUniverse universe;
    universe.handshakeWires =
        2 * net.partition().elementGraph.undirectedEdges().size();
    fault::FaultRates rates;
    rates.severedHandshakeWire = rate;
    std::uint64_t want_draws = 0;
    std::uint64_t plan_draws = 0;
    for (std::uint64_t i = 0; i < cfg.trials; ++i) {
        const Rng rng = Rng::forTrial(cfg.seed, i);
        Rng plan_rng = rng.deriveStream(mc::planSalt);
        Rng jitter_rng = rng.deriveStream(mc::delaySalt);
        const std::uint64_t d =
            fault::FaultPlan::generate(universe, rates, plan_rng).draws();
        (void)net.simulate(rounds, &jitter_rng);
        plan_draws += d;
        want_draws += d + jitter_rng.draws();
    }
    EXPECT_GT(plan_draws, 0u);
    EXPECT_GT(want_draws, plan_draws);
    EXPECT_EQ(reg.counter("mc.hybrid.trials").value(), cfg.trials);
    EXPECT_EQ(reg.counter("mc.hybrid.rng_draws").value(), want_draws);

    obs::MetricsRegistry serial_reg;
    mc::McConfig serial = cfg;
    serial.threads = 1;
    serial.metrics = &serial_reg;
    (void)mc::hybridSurvivalSweep(net, rate, rounds, serial);
    EXPECT_EQ(serial_reg.counter("mc.hybrid.rng_draws").value(),
              want_draws);
}

TEST(McMetrics, InjectorCountsArmedFaultsByKind)
{
    obs::MetricsRegistry reg;
    desim::Simulator sim;
    fault::TrixGrid grid(sim, 4, 4, [](int, int, int) { return 1.0; });

    fault::FaultPlan plan = fault::FaultPlan::singleDeadBuffer(0);
    plan.add({fault::FaultKind::DelayDrift, 1, 0.0, 2.0, false});
    fault::FaultInjector injector(sim, plan);
    injector.setMetrics(&reg);
    injector.armTrixGrid(grid);

    EXPECT_EQ(injector.armed(), 2u);
    EXPECT_EQ(reg.counter("fault.armed.dead-buffer").value(), 1u);
    EXPECT_EQ(reg.counter("fault.armed.delay-drift").value(), 1u);
}

} // namespace
