/**
 * @file
 * FAULT -- tree vs redundant-grid clock distribution under faults.
 *
 * Three experiments on a 16x16 mesh:
 *
 *  1. Exhaustive single-dead-buffer pass with nominal delays: every
 *     buffer stage of the H-tree is killed in turn (each kill must
 *     silence the whole subtree below it -- at least one cell loses
 *     its clock), then every link of the TRIX grid is killed in turn
 *     (median voting must mask every one: all cells clocked, max comm
 *     skew bit-equal to the fault-free run).
 *  2. Graceful-degradation curves: max comm skew and clocked-cell
 *     fraction vs fault rate for H-tree, spine and TRIX grid
 *     (fault::FaultRates::mixed plans, Monte-Carlo over chips), plus
 *     the hybrid handshake network's surviving-element fraction under
 *     severed wires.
 *  3. Determinism: one sweep point re-run at 1, 2 and 8 threads must
 *     produce bit-identical samples (the fault plans and the sweep
 *     both obey the Rng::forTrial contract).
 *  4. Resilience block: per lane-kernel ISA the host can run, the
 *     per-trial time of the sweep's lane pass
 *     (ResilienceScenario::runTrialRange, eight trials per lane group)
 *     against the one-trial oracle runTrial (FaultPlan::generate and
 *     the scalar cellArrivals pass), for the H-tree and the TRIX grid
 *     at rates 0 and 0.02: one thread, best of 7 interleaved runs.
 *     Every lane-pass sample must equal runTrial's bit for bit.
 *
 * Results go to stdout as tables and to BENCH_fault_tolerance.json;
 * the exit code is nonzero if any masking, degradation, determinism or
 * lane-pass identity property fails.
 */

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_util.hh"
#include "clocktree/buffering.hh"
#include "clocktree/builders.hh"
#include "fault/injector.hh"
#include "hybrid/partition.hh"
#include "layout/generators.hh"
#include "mc/resilience.hh"

namespace
{

using namespace vsync;

constexpr int rows = 16;
constexpr int cols = 16;

/** Nominal (variation-free) stage delays for the buffered tree. */
desim::ClockNet::DelayFn
nominalTreeDelays(const mc::ResilienceConfig &rc)
{
    return [rc](const clocktree::BufferedSite &site, std::size_t) {
        return desim::EdgeDelays::same(
            site.wireFromParent * rc.delay.m +
            (site.isBuffer ? rc.bufferDelay : 0.0));
    };
}

/** Nominal per-link delay for the TRIX grid. */
fault::TrixGrid::LinkDelayFn
nominalGridDelays(const mc::ResilienceConfig &rc)
{
    return [rc](int, int, int) { return rc.bufferDelay + rc.delay.m; };
}

struct SingleFaultSummary
{
    std::size_t sites = 0;
    std::size_t masked = 0;     // faults with no cell lost
    std::size_t skewExact = 0;  // faults with skew == healthy skew
    double minClockedFraction = 1.0;
    Time healthySkew = 0.0;
    double healthyClockedFraction = 0.0;
};

/** Kill every buffer stage of the H-tree in turn. */
SingleFaultSummary
exhaustiveTreePass(const layout::Layout &l,
                   const clocktree::ClockTree &tree,
                   const clocktree::BufferedClockTree &btree,
                   const mc::ResilienceConfig &rc)
{
    const auto delay_of = nominalTreeDelays(rc);
    const core::SkewKernel kernel(l, tree); // one compile per pass
    SingleFaultSummary s;
    const fault::DistributionOutcome healthy =
        fault::simulateTreeUnderFaults(kernel, btree, delay_of,
                                       fault::FaultPlan());
    s.healthySkew = healthy.maxCommSkew;
    s.healthyClockedFraction = healthy.clockedFraction;
    s.sites = fault::universeOf(btree).bufferSites;
    for (std::size_t e = 0; e < s.sites; ++e) {
        const fault::DistributionOutcome out =
            fault::simulateTreeUnderFaults(
                kernel, btree, delay_of,
                fault::FaultPlan::singleDeadBuffer(e));
        s.masked += out.clockedFraction >= 1.0;
        s.skewExact += out.maxCommSkew == healthy.maxCommSkew;
        s.minClockedFraction =
            std::min(s.minClockedFraction, out.clockedFraction);
    }
    return s;
}

/** Kill every link of the TRIX grid in turn. */
SingleFaultSummary
exhaustiveGridPass(const layout::Layout &l, const mc::ResilienceConfig &rc)
{
    const auto delay_of = nominalGridDelays(rc);
    const core::SkewKernel kernel(l); // pairs-only, one per pass
    SingleFaultSummary s;
    const fault::DistributionOutcome healthy =
        fault::simulateGridUnderFaults(kernel, rows, cols, delay_of,
                                       fault::FaultPlan());
    s.healthySkew = healthy.maxCommSkew;
    s.healthyClockedFraction = healthy.clockedFraction;
    s.sites = fault::TrixGrid::universe(rows, cols).bufferSites;
    for (std::size_t link = 0; link < s.sites; ++link) {
        const fault::DistributionOutcome out =
            fault::simulateGridUnderFaults(
                kernel, rows, cols, delay_of,
                fault::FaultPlan::singleDeadBuffer(link));
        const bool all_clocked = out.clockedFraction >= 1.0;
        s.masked += all_clocked;
        s.skewExact += all_clocked &&
                       out.maxCommSkew == healthy.maxCommSkew;
        s.minClockedFraction =
            std::min(s.minClockedFraction, out.clockedFraction);
    }
    return s;
}

/** One resilience-block row: the lane pass against runTrial. */
struct BlockTiming
{
    double laneUs = 0.0;   // per trial, best of the runs
    double oracleUs = 0.0; // per trial, best of the runs
    bool identical = true;
};

/**
 * Time @p trials trials of @p s through runTrialRange on @p isa and
 * through runTrial, alternating the two paths over @p runs runs, and
 * check every lane-pass sample against runTrial's.
 */
BlockTiming
timeResilienceBlock(const mc::ResilienceScenario &s, RngIsa isa,
                    std::uint64_t seed, std::size_t trials, int runs)
{
    using Clock = std::chrono::steady_clock;
    const auto perTrialUs = [&](Clock::time_point t0) {
        return std::chrono::duration<double, std::micro>(Clock::now() - t0)
                   .count() /
               static_cast<double>(trials);
    };
    std::vector<double> skew(trials), clocked(trials), faults(trials);
    std::vector<fault::DistributionOutcome> ref(trials);
    std::vector<Time> scratch;
    BlockTiming t{infinity, infinity, true};
    for (int r = 0; r < runs; ++r) {
        Clock::time_point t0 = Clock::now();
        s.runTrialRange(seed, 0, skew, clocked, faults, nullptr, scratch,
                        isa);
        t.laneUs = std::min(t.laneUs, perTrialUs(t0));
        t0 = Clock::now();
        for (std::size_t i = 0; i < trials; ++i)
            ref[i] = s.runTrial(seed, i);
        t.oracleUs = std::min(t.oracleUs, perTrialUs(t0));
    }
    for (std::size_t i = 0; i < trials; ++i)
        t.identical =
            t.identical &&
            std::bit_cast<std::uint64_t>(skew[i]) ==
                std::bit_cast<std::uint64_t>(ref[i].maxCommSkew) &&
            std::bit_cast<std::uint64_t>(clocked[i]) ==
                std::bit_cast<std::uint64_t>(ref[i].clockedFraction) &&
            faults[i] == static_cast<double>(ref[i].faultCount);
    return t;
}

void
emitCurve(JsonWriter &json, Table &table, const std::string &kind,
          const std::vector<mc::ResiliencePoint> &curve)
{
    json.beginObject().keyValue("distribution", kind);
    json.key("points").beginArray();
    for (const mc::ResiliencePoint &p : curve) {
        json.beginObject()
            .keyValue("fault_rate", p.faultRate)
            .keyValue("mean_faults_per_chip", p.meanFaults)
            .keyValue("max_comm_skew_mean", p.maxCommSkew.mean())
            .keyValue("max_comm_skew_p99", p.maxCommSkew.quantile(0.99))
            .keyValue("max_comm_skew_max", p.maxCommSkew.max())
            .keyValue("clocked_fraction_mean", p.clockedFraction.mean())
            .keyValue("clocked_fraction_min", p.clockedFraction.min())
            .endObject();
        table.addRow({kind, Table::num(p.faultRate),
                      Table::fixed(p.meanFaults, 1),
                      Table::num(p.maxCommSkew.mean()),
                      Table::num(p.maxCommSkew.max()),
                      Table::fixed(p.clockedFraction.mean(), 4),
                      Table::fixed(p.clockedFraction.min(), 4)});
    }
    json.endArray().endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsync;
    const auto opts = BenchOptions::parse(argc, argv);
    const std::uint64_t seed = opts.seedSet ? opts.seed : 0xfa017ULL;

    const layout::Layout l = layout::meshLayout(rows, cols);
    const mc::ResilienceConfig rc;
    const auto tree = clocktree::buildHTreeGrid(l, rows, cols);
    const auto btree =
        clocktree::BufferedClockTree::insertBuffers(tree,
                                                    rc.bufferSpacing);

    bench::BenchJson result("fault_tolerance", seed);
    JsonWriter &json = result.writer();
    json.keyValue("array", "mesh16x16")
        .keyValue("m", rc.delay.m)
        .keyValue("eps", rc.delay.eps)
        .keyValue("buffer_delay", rc.bufferDelay)
        .keyValue("buffer_spacing", rc.bufferSpacing);

    // --- 1. Exhaustive single-dead-buffer pass. ---------------------
    bench::headline(
        "Single dead buffer, exhaustive: every H-tree stage kill must "
        "silence its subtree; every TRIX link kill must be masked by "
        "the median vote with zero skew degradation");
    const SingleFaultSummary treePass =
        exhaustiveTreePass(l, tree, btree, rc);
    const SingleFaultSummary gridPass = exhaustiveGridPass(l, rc);

    const bool treeAlwaysLoses = treePass.masked == 0;
    const bool gridAlwaysMasks = gridPass.masked == gridPass.sites;
    const bool gridZeroDegradation =
        gridPass.skewExact == gridPass.sites;

    Table singleTable("single dead buffer (16x16 mesh)",
                      {"distribution", "sites", "masked",
                       "skew-exact", "worst clocked fraction"});
    singleTable.addRow({"htree", Table::integer(treePass.sites),
                        Table::integer(treePass.masked),
                        Table::integer(treePass.skewExact),
                        Table::fixed(treePass.minClockedFraction, 4)});
    singleTable.addRow({"trix-grid", Table::integer(gridPass.sites),
                        Table::integer(gridPass.masked),
                        Table::integer(gridPass.skewExact),
                        Table::fixed(gridPass.minClockedFraction, 4)});
    emitTable(singleTable, opts);

    json.key("single_dead_buffer").beginObject();
    json.key("htree").beginObject()
        .keyValue("buffer_sites",
                  static_cast<std::uint64_t>(treePass.sites))
        .keyValue("faults_masked",
                  static_cast<std::uint64_t>(treePass.masked))
        .keyValue("every_fault_loses_cells", treeAlwaysLoses)
        .keyValue("worst_clocked_fraction", treePass.minClockedFraction)
        .keyValue("healthy_max_comm_skew", treePass.healthySkew)
        .endObject();
    json.key("trix_grid").beginObject()
        .keyValue("links", static_cast<std::uint64_t>(gridPass.sites))
        .keyValue("faults_masked",
                  static_cast<std::uint64_t>(gridPass.masked))
        .keyValue("every_fault_masked", gridAlwaysMasks)
        .keyValue("zero_skew_degradation", gridZeroDegradation)
        .keyValue("worst_clocked_fraction", gridPass.minClockedFraction)
        .keyValue("healthy_max_comm_skew", gridPass.healthySkew)
        .endObject();
    json.endObject();

    // --- 2. Graceful-degradation curves. ----------------------------
    const std::vector<double> rates{0.0, 0.005, 0.02, 0.05};
    mc::McConfig cfg;
    cfg.seed = seed;
    cfg.trials = 64;

    bench::headline(
        "Graceful degradation: mixed fault plans at increasing rates, "
        "64 chips per point");
    Table curveTable("degradation curves (16x16 mesh, 64 chips/point)",
                     {"distribution", "fault rate", "faults/chip",
                      "mean max skew", "worst max skew",
                      "mean clocked", "worst clocked"});
    json.key("degradation_curves").beginArray();
    std::vector<std::vector<mc::ResiliencePoint>> curves;
    for (const mc::DistributionKind kind :
         {mc::DistributionKind::HTree, mc::DistributionKind::Spine,
          mc::DistributionKind::TrixGrid}) {
        curves.push_back(mc::degradationCurve(l, rows, cols, kind,
                                              rates, rc, cfg));
        emitCurve(json, curveTable,
                  mc::distributionKindName(kind), curves.back());
    }
    json.endArray();
    emitTable(curveTable, opts);

    // Monotone sanity on the means: more faults never clock more cells.
    bool degradationMonotone = true;
    for (const auto &curve : curves)
        for (std::size_t i = 1; i < curve.size(); ++i)
            degradationMonotone =
                degradationMonotone &&
                curve[i].clockedFraction.mean() <=
                    curve[i - 1].clockedFraction.mean() + 1e-12;

    // The grid must hold more of the array clocked than the tree at
    // every nonzero rate (the redundancy has to buy something).
    bool gridBeatsTree = true;
    for (std::size_t i = 1; i < rates.size(); ++i)
        gridBeatsTree = gridBeatsTree &&
                        curves[2][i].clockedFraction.mean() >=
                            curves[0][i].clockedFraction.mean();

    // --- Hybrid survival under severed handshake wires. -------------
    const hybrid::Partition part = hybrid::partitionGrid(l, 4.0);
    const hybrid::HybridNetwork net(part, hybrid::HybridParams{});
    Table hybridTable("hybrid survival (severed wires, 64 runs/point)",
                      {"fault rate", "mean surviving fraction",
                       "worst surviving fraction"});
    json.key("hybrid_survival").beginObject()
        .keyValue("elements", part.elementCount);
    json.key("points").beginArray();
    for (const double rate : rates) {
        const mc::McResult survival =
            mc::hybridSurvivalSweep(net, rate, 32, cfg);
        json.beginObject()
            .keyValue("fault_rate", rate)
            .keyValue("surviving_fraction_mean", survival.mean())
            .keyValue("surviving_fraction_min", survival.min())
            .endObject();
        hybridTable.addRow({Table::num(rate),
                            Table::fixed(survival.mean(), 4),
                            Table::fixed(survival.min(), 4)});
    }
    json.endArray().endObject();
    emitTable(hybridTable, opts);

    // --- 3. Determinism across thread counts. -----------------------
    bool deterministic = true;
    {
        mc::McConfig base = cfg;
        base.trials = 32;
        base.threads = 1;
        const mc::ResiliencePoint ref = mc::resilienceAtRate(
            l, rows, cols, mc::DistributionKind::TrixGrid, 0.02, rc,
            base);
        for (const unsigned tc : {2u, 8u}) {
            mc::McConfig alt = base;
            alt.threads = tc;
            const mc::ResiliencePoint got = mc::resilienceAtRate(
                l, rows, cols, mc::DistributionKind::TrixGrid, 0.02,
                rc, alt);
            deterministic =
                deterministic &&
                got.maxCommSkew.bitIdentical(ref.maxCommSkew) &&
                got.clockedFraction.bitIdentical(ref.clockedFraction);
        }
    }

    // --- 4. Resilience block: the lane pass against runTrial. -------
    bench::headline(
        "Resilience block: per-trial time of the sweep's 8-lane pass "
        "vs the one-trial runTrial oracle, 1 thread, best of 7 "
        "interleaved runs; samples must match bit for bit");
    Table blockTable("resilience block (16x16 mesh, 256 trials/run)",
                     {"isa", "distribution", "fault rate",
                      "lane pass us/trial", "runTrial us/trial",
                      "speedup", "bit-identical"});
    bool laneIdentical = true;
    json.key("resilience_block").beginArray();
    for (const RngIsa isa :
         {RngIsa::Scalar, RngIsa::Avx2, RngIsa::Avx512}) {
        if (!rngIsaSupported(isa))
            continue;
        for (const mc::DistributionKind kind :
             {mc::DistributionKind::HTree,
              mc::DistributionKind::TrixGrid}) {
            for (const double rate : {0.0, 0.02}) {
                const mc::ResilienceScenario s =
                    mc::compileResilienceScenario(l, rows, cols, kind, rate,
                                                  rc, core::directCompile());
                const BlockTiming t =
                    timeResilienceBlock(s, isa, seed, 256, 7);
                laneIdentical = laneIdentical && t.identical;
                const std::string name = mc::distributionKindName(kind);
                json.beginObject()
                    .keyValue("isa", rngIsaName(isa))
                    .keyValue("distribution", name)
                    .keyValue("fault_rate", rate)
                    .keyValue("lane_pass_us_per_trial", t.laneUs)
                    .keyValue("run_trial_us_per_trial", t.oracleUs)
                    .keyValue("speedup", t.oracleUs / t.laneUs)
                    .keyValue("bit_identical", t.identical)
                    .endObject();
                blockTable.addRow({rngIsaName(isa), name, Table::num(rate),
                                   Table::fixed(t.laneUs, 2),
                                   Table::fixed(t.oracleUs, 2),
                                   Table::fixed(t.oracleUs / t.laneUs, 2),
                                   t.identical ? "yes" : "NO"});
            }
        }
    }
    json.endArray();
    emitTable(blockTable, opts);

    const bool ok = treeAlwaysLoses && gridAlwaysMasks &&
                    gridZeroDegradation && degradationMonotone &&
                    gridBeatsTree && deterministic && laneIdentical;
    json.keyValue("degradation_monotone", degradationMonotone)
        .keyValue("grid_clocked_fraction_beats_tree", gridBeatsTree)
        .keyValue("bit_identical_across_thread_counts", deterministic)
        .keyValue("lane_pass_bit_identical_to_run_trial", laneIdentical)
        .keyValue("all_properties_hold", ok);

    std::printf(
        "\nwrote BENCH_fault_tolerance.json (tree lost cells on "
        "%zu/%zu single faults, grid masked %zu/%zu with %s skew "
        "degradation; sweeps %s across 1/2/8 threads; lane pass %s "
        "runTrial)\n",
        treePass.sites - treePass.masked, treePass.sites,
        gridPass.masked, gridPass.sites,
        gridZeroDegradation ? "zero" : "NONZERO",
        deterministic ? "bit-identical" : "DIVERGED",
        laneIdentical ? "bit-identical to" : "DIVERGED from");
    if (!ok)
        std::printf("PROPERTY FAILURE: see "
                    "BENCH_fault_tolerance.json\n");
    return ok ? 0 : 1;
}
