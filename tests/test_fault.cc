/**
 * @file
 * Tests for the fault-injection subsystem: deterministic fault plans,
 * the injector seams on desim/clocktree/hybrid targets, the TRIX
 * redundant grid's median voting, and the resilience sweeps'
 * bit-identical-across-threads guarantee and binomial fault counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "clocktree/buffering.hh"
#include "clocktree/builders.hh"
#include "common/rng.hh"
#include "core/advisor.hh"
#include "core/skew_analysis.hh"
#include "desim/clock_net.hh"
#include "desim/simulator.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "fault/trix_grid.hh"
#include "hybrid/handshake.hh"
#include "hybrid/partition.hh"
#include "layout/generators.hh"
#include "mc/resilience.hh"
#include "obs/metrics.hh"

namespace
{

using namespace vsync;
using namespace vsync::fault;

const unsigned kThreadCounts[] = {1, 2, 8};

FaultUniverse
testUniverse()
{
    FaultUniverse u;
    u.bufferSites = 200;
    u.clockNets = 100;
    u.handshakeWires = 60;
    return u;
}

/**
 * P(X > @p x) for X ~ chi-squared with @p df degrees of freedom: the
 * regularized upper incomplete gamma Q(df / 2, x / 2), by its series
 * below a + 1 and its continued fraction above (Numerical Recipes 6.2).
 */
double
chiSquareSurvival(double df, double x)
{
    const double a = df / 2.0;
    const double z = x / 2.0;
    if (z <= 0.0)
        return 1.0;
    const double front = std::exp(-z + a * std::log(z) - std::lgamma(a));
    if (z < a + 1.0) {
        double term = 1.0 / a;
        double sum = term;
        for (int n = 1; n < 1000 && term > sum * 1e-16; ++n) {
            term *= z / (a + n);
            sum += term;
        }
        return 1.0 - front * sum;
    }
    constexpr double tiny = 1e-300;
    double b = z + 1.0 - a;
    double c = 1.0 / tiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i < 1000; ++i) {
        const double an = -i * (i - a);
        b += 2.0;
        d = an * d + b;
        d = std::fabs(d) < tiny ? tiny : d;
        c = b + an / c;
        c = std::fabs(c) < tiny ? tiny : c;
        d = 1.0 / d;
        h *= d * c;
        if (std::fabs(d * c - 1.0) < 1e-16)
            break;
    }
    return front * h;
}

// --- Fault plans. ---------------------------------------------------

TEST(FaultPlan, ForTrialIsAPureFunctionOfSeedAndTrial)
{
    const FaultUniverse u = testUniverse();
    const FaultRates rates = FaultRates::mixed(0.05);
    const FaultPlan a = FaultPlan::forTrial(u, rates, 42, 7);
    const FaultPlan b = FaultPlan::forTrial(u, rates, 42, 7);
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a.empty());
    // Different trials and different seeds give different plans.
    EXPECT_FALSE(a == FaultPlan::forTrial(u, rates, 42, 8));
    EXPECT_FALSE(a == FaultPlan::forTrial(u, rates, 43, 7));
}

TEST(FaultPlan, KindsDrawFromIndependentSubstreams)
{
    // Zeroing one kind's rate must not move another kind's faults.
    const FaultUniverse u = testUniverse();
    FaultRates all = FaultRates::uniform(0.1);
    FaultRates noDrift = all;
    noDrift.delayDrift = 0.0;
    const FaultPlan withDrift = FaultPlan::forTrial(u, all, 1, 0);
    const FaultPlan withoutDrift = FaultPlan::forTrial(u, noDrift, 1, 0);

    std::vector<Fault> dead1, dead2;
    for (const Fault &f : withDrift.faults())
        if (f.kind == FaultKind::DeadBuffer)
            dead1.push_back(f);
    for (const Fault &f : withoutDrift.faults())
        if (f.kind == FaultKind::DeadBuffer)
            dead2.push_back(f);
    ASSERT_EQ(dead1.size(), dead2.size());
    for (std::size_t i = 0; i < dead1.size(); ++i)
        EXPECT_EQ(dead1[i].site, dead2[i].site);
    EXPECT_GT(withDrift.count(FaultKind::DelayDrift), 0u);
    EXPECT_EQ(withoutDrift.count(FaultKind::DelayDrift), 0u);
}

TEST(FaultPlan, DrawsCountEverySubstreamDraw)
{
    // One Bernoulli draw per site of every kind with a nonzero rate,
    // plus one per drifting buffer (its factor) and per stuck net (its
    // level); glitches and dead buffers draw nothing more.
    const FaultUniverse u = testUniverse();
    const FaultPlan plan = FaultPlan::forTrial(u, FaultRates::mixed(0.1),
                                               9, 3);
    EXPECT_EQ(plan.draws(), 2 * u.bufferSites + 2 * u.clockNets +
                                u.handshakeWires +
                                plan.count(FaultKind::DelayDrift) +
                                plan.count(FaultKind::StuckAtNet));
    EXPECT_EQ(FaultPlan::singleDeadBuffer(0).draws(), 0u);
}

TEST(FaultPlan, RatesScaleTheFaultCount)
{
    const FaultUniverse u = testUniverse();
    std::size_t sparse = 0, heavy = 0;
    for (std::uint64_t t = 0; t < 32; ++t) {
        sparse +=
            FaultPlan::forTrial(u, FaultRates::uniform(0.01), 5, t).size();
        heavy +=
            FaultPlan::forTrial(u, FaultRates::uniform(0.2), 5, t).size();
    }
    EXPECT_LT(sparse, heavy);
    EXPECT_TRUE(
        FaultPlan::forTrial(u, FaultRates::uniform(0.0), 5, 0).empty());
}

// --- Injector seams on a simulated clock tree. ----------------------

/** A buffered 8x8 H-tree driven with nominal delays under @p plan. */
DistributionOutcome
treeOutcome(const FaultPlan &plan)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const auto tree = clocktree::buildHTreeGrid(l, 8, 8);
    const auto btree =
        clocktree::BufferedClockTree::insertBuffers(tree, 4.0);
    const desim::ClockNet::DelayFn delay_of =
        [](const clocktree::BufferedSite &site, std::size_t) {
            return desim::EdgeDelays::same(
                site.wireFromParent * 0.05 + (site.isBuffer ? 0.2 : 0.0));
        };
    return simulateTreeUnderFaults(core::SkewKernel(l, tree), btree,
                                   delay_of, plan);
}

TEST(FaultInjector, HealthyTreeClocksEveryCell)
{
    const DistributionOutcome out = treeOutcome(FaultPlan());
    EXPECT_DOUBLE_EQ(out.clockedFraction, 1.0);
    EXPECT_EQ(out.clockedPairs, out.pairCount);
    EXPECT_EQ(out.faultCount, 0u);
}

TEST(FaultInjector, DeadBufferSilencesTheSubtreeBelow)
{
    // Killing the stage feeding site 1 (a child of the root) must
    // leave part of the array unclocked -- and only part.
    const DistributionOutcome out =
        treeOutcome(FaultPlan::singleDeadBuffer(0));
    EXPECT_LT(out.clockedFraction, 1.0);
    EXPECT_GT(out.clockedFraction, 0.0);
    EXPECT_LT(out.clockedPairs, out.pairCount);
}

TEST(FaultInjector, DelayDriftSkewsButDoesNotSilence)
{
    FaultPlan plan;
    plan.add({FaultKind::DelayDrift, 0, 0.0, 3.0, false});
    const DistributionOutcome healthy = treeOutcome(FaultPlan());
    const DistributionOutcome out = treeOutcome(plan);
    EXPECT_DOUBLE_EQ(out.clockedFraction, 1.0);
    EXPECT_GT(out.maxCommSkew, healthy.maxCommSkew);
}

TEST(FaultInjector, StuckLowNetSilencesItsSubtree)
{
    // Site 1 stuck at low: everything below it never sees an edge.
    FaultPlan plan;
    plan.add({FaultKind::StuckAtNet, 1, 0.0, 1.0, false});
    const DistributionOutcome out = treeOutcome(plan);
    EXPECT_LT(out.clockedFraction, 1.0);
}

TEST(FaultInjector, StuckHighNetDeliversOnePrematureEdge)
{
    // Site 1 stuck at high from t = 0: its subtree sees a t = 0 rising
    // edge (so every cell is "clocked") but with the full root-to-site
    // latency as skew against the healthy half.
    FaultPlan plan;
    plan.add({FaultKind::StuckAtNet, 1, 0.0, 1.0, true});
    const DistributionOutcome healthy = treeOutcome(FaultPlan());
    const DistributionOutcome out = treeOutcome(plan);
    EXPECT_DOUBLE_EQ(out.clockedFraction, 1.0);
    EXPECT_GT(out.maxCommSkew, healthy.maxCommSkew);
}

TEST(FaultInjector, TransientGlitchInjectsASpuriousPulse)
{
    // A glitch on an otherwise idle root driver: the spurious pulse
    // propagates through the grid like a real clock edge.
    desim::Simulator sim;
    TrixGrid grid(sim, 1, 1, [](int, int, int) { return 0.1; });
    FaultPlan plan;
    plan.add({FaultKind::TransientGlitch, grid.nodeCount() /* root */,
              2.0, 0.5, false});
    FaultInjector injector(sim, plan);
    injector.armTrixGrid(grid);
    sim.run();
    EXPECT_NEAR(grid.arrival(0, 0), 2.1, 1e-12);
}

TEST(FaultInjector, OnsetDelaysTheFault)
{
    // A buffer dying *after* the pulse passed changes nothing.
    FaultPlan late;
    late.add({FaultKind::DeadBuffer, 0, 1e6, 1.0, false});
    const DistributionOutcome healthy = treeOutcome(FaultPlan());
    const DistributionOutcome out = treeOutcome(late);
    EXPECT_DOUBLE_EQ(out.clockedFraction, healthy.clockedFraction);
    EXPECT_DOUBLE_EQ(out.maxCommSkew, healthy.maxCommSkew);
}

// --- TRIX grid. -----------------------------------------------------

TEST(TrixGrid, NominalArrivalsAreUniformPerLayer)
{
    desim::Simulator sim;
    TrixGrid grid(sim, 4, 4, [](int, int, int) { return 0.25; });
    grid.pulse();
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            EXPECT_DOUBLE_EQ(grid.arrival(r, c),
                             TrixGrid::nominalArrival(r, 0.25));
}

TEST(TrixGrid, MedianVotingMasksAnySingleDeadLink)
{
    // Every link of a 4x4 grid, including the interior node links the
    // issue names, killed one at a time: arrivals must be unchanged.
    const layout::Layout l = layout::meshLayout(4, 4);
    const core::SkewKernel kernel(l);
    const auto delay_of = [](int, int, int) { return 0.25; };
    const DistributionOutcome healthy =
        simulateGridUnderFaults(kernel, 4, 4, delay_of, FaultPlan());
    ASSERT_DOUBLE_EQ(healthy.clockedFraction, 1.0);

    const std::size_t links = TrixGrid::universe(4, 4).bufferSites;
    for (std::size_t link = 0; link < links; ++link) {
        const DistributionOutcome out = simulateGridUnderFaults(
            kernel, 4, 4, delay_of, FaultPlan::singleDeadBuffer(link));
        EXPECT_DOUBLE_EQ(out.clockedFraction, 1.0) << "link " << link;
        for (std::size_t c = 0; c < out.cellArrival.size(); ++c)
            EXPECT_DOUBLE_EQ(out.cellArrival[c], healthy.cellArrival[c])
                << "link " << link << " cell " << c;
    }
}

TEST(TrixGrid, TwoDeadLinksIntoOneNodeDoSilenceIt)
{
    // The single-fault guarantee is tight: two dead links into the
    // same node starve its median vote and the loss propagates.
    const layout::Layout l = layout::meshLayout(4, 4);
    const auto delay_of = [](int, int, int) { return 0.25; };
    FaultPlan plan;
    desim::Simulator sim;
    TrixGrid probe(sim, 4, 4, delay_of);
    plan.add({FaultKind::DeadBuffer, probe.linkIndex(1, 1, 0), 0.0, 1.0,
              false});
    plan.add({FaultKind::DeadBuffer, probe.linkIndex(1, 1, 1), 0.0, 1.0,
              false});
    const DistributionOutcome out = simulateGridUnderFaults(
        core::SkewKernel(l), 4, 4, delay_of, plan);
    EXPECT_LT(out.clockedFraction, 1.0);
    EXPECT_EQ(out.cellArrival[1 * 4 + 1], infinity);
}

TEST(TrixGrid, SharesTheSkewQuerySurfaceWithTrees)
{
    // Both distributions reduce to core::skewFromArrivals on the same
    // layout, so their outcomes are directly comparable.
    const layout::Layout l = layout::meshLayout(4, 4);
    const DistributionOutcome grid = simulateGridUnderFaults(
        core::SkewKernel(l), 4, 4, [](int, int, int) { return 0.25; },
        FaultPlan());
    const core::ArrivalSkew direct =
        core::skewFromArrivals(l, grid.cellArrival);
    EXPECT_DOUBLE_EQ(direct.maxCommSkew, grid.maxCommSkew);
    EXPECT_DOUBLE_EQ(direct.clockedFraction, grid.clockedFraction);
    EXPECT_EQ(direct.pairCount, grid.pairCount);
}

// --- Severed handshake wires. ---------------------------------------

TEST(FaultInjector, SeveredWireStallsExactlyTheAffectedPair)
{
    desim::Simulator sim;
    hybrid::HandshakePair severedPair(sim, 1.0, 0.5);
    hybrid::HandshakePair healthyPair(sim, 1.0, 0.5);

    FaultInjector injector(sim, FaultPlan::singleSeveredWire(0));
    injector.armHandshakes({&severedPair, &healthyPair});
    EXPECT_EQ(injector.armed(), 1u);

    // The severed pair never completes a round; the healthy pair on
    // the same simulator is untouched and completes all of its own.
    EXPECT_TRUE(severedPair.runBounded(3, 1000.0).empty());
    const auto done = healthyPair.run(3);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(severedPair.roundsCompleted(), 0u);
}

TEST(FaultInjector, SeveredAckWireAlsoStalls)
{
    desim::Simulator sim;
    hybrid::HandshakePair pair(sim, 1.0, 0.5);
    FaultInjector injector(sim, FaultPlan::singleSeveredWire(1));
    injector.armHandshakes({&pair});
    EXPECT_TRUE(pair.runBounded(2, 1000.0).empty());
}

TEST(HybridNetwork, SeveredWireStallsOnlyElementsWaitingOnIt)
{
    // Network-level counterpart: severing one element-pair link makes
    // its endpoints (and transitively, their waiters) stall, while a
    // single round leaves distant elements finished.
    const layout::Layout l = layout::meshLayout(16, 16);
    const hybrid::Partition part = hybrid::partitionGrid(l, 4.0);
    const hybrid::HybridNetwork net(part, hybrid::HybridParams{});
    const auto res = net.simulate(
        1, nullptr, [](int a, int b) { return a == 0 || b == 0; });
    std::size_t alive = 0;
    for (const Time t : res.lastCompletion)
        alive += t < infinity;
    EXPECT_LT(alive, res.lastCompletion.size());
    EXPECT_GT(alive, 0u);
}

// --- Resilience sweeps. ---------------------------------------------

TEST(Resilience, SweepIsBitIdenticalAcrossThreadCounts)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const mc::ResilienceConfig rc;
    mc::McConfig cfg;
    cfg.trials = 24;
    cfg.seed = 99;

    std::vector<mc::ResiliencePoint> runs;
    for (const unsigned tc : kThreadCounts) {
        cfg.threads = tc;
        runs.push_back(mc::resilienceAtRate(
            l, 8, 8, mc::DistributionKind::TrixGrid, 0.03, rc, cfg));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_TRUE(
            runs[i].maxCommSkew.bitIdentical(runs[0].maxCommSkew));
        EXPECT_TRUE(runs[i].clockedFraction.bitIdentical(
            runs[0].clockedFraction));
        EXPECT_DOUBLE_EQ(runs[i].meanFaults, runs[0].meanFaults);
    }
    EXPECT_GT(runs[0].meanFaults, 0.0);
}

TEST(Resilience, HealthyBaselineClocksEverything)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const mc::ResilienceConfig rc;
    mc::McConfig cfg;
    cfg.trials = 8;
    for (const mc::DistributionKind kind :
         {mc::DistributionKind::HTree, mc::DistributionKind::Spine,
          mc::DistributionKind::TrixGrid}) {
        const mc::ResiliencePoint p =
            mc::resilienceAtRate(l, 8, 8, kind, 0.0, rc, cfg);
        EXPECT_DOUBLE_EQ(p.clockedFraction.mean(), 1.0)
            << mc::distributionKindName(kind);
        EXPECT_DOUBLE_EQ(p.meanFaults, 0.0);
    }
}

TEST(Resilience, GridDegradesMoreGracefullyThanTree)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const mc::ResilienceConfig rc;
    mc::McConfig cfg;
    cfg.trials = 32;
    const mc::ResiliencePoint tree = mc::resilienceAtRate(
        l, 8, 8, mc::DistributionKind::HTree, 0.02, rc, cfg);
    const mc::ResiliencePoint grid = mc::resilienceAtRate(
        l, 8, 8, mc::DistributionKind::TrixGrid, 0.02, rc, cfg);
    EXPECT_GT(grid.clockedFraction.mean(),
              tree.clockedFraction.mean());
}

TEST(Resilience, SweepFaultCountsFollowTheirBinomials)
{
    // The model check behind the counters: a sweep's
    // mc.resilience.faults.<kind> count over T trials of a kind with S
    // sites at rate p is Binomial(S * T, p). The standardised squares
    // over every (scheme, rate, kind) cell sum to a chi-squared with
    // one degree of freedom per cell; fixed seeds and rejection at
    // p < 1e-6 keep the test deterministic.
    EXPECT_NEAR(chiSquareSurvival(2.0, 10.0), std::exp(-5.0), 1e-12);
    EXPECT_NEAR(chiSquareSurvival(1.0, 23.92812698), 1e-6, 1e-9);
    EXPECT_NEAR(chiSquareSurvival(40.0, 39.3354), 0.5, 1e-4);

    const layout::Layout l = layout::meshLayout(8, 8);
    const mc::ResilienceConfig rc;
    const FaultKind kinds[] = {FaultKind::DeadBuffer, FaultKind::DelayDrift,
                               FaultKind::StuckAtNet,
                               FaultKind::TransientGlitch};
    for (const std::uint64_t seed : {0x5eedULL, 0xb1a5ULL}) {
        double chi2 = 0.0;
        int cells = 0;
        std::string worst;
        double worstZ = 0.0;
        for (const mc::DistributionKind scheme :
             {mc::DistributionKind::HTree, mc::DistributionKind::Spine,
              mc::DistributionKind::TrixGrid}) {
            for (const double rate : {0.005, 0.05, 0.3}) {
                obs::MetricsRegistry reg;
                mc::McConfig cfg;
                cfg.seed = seed;
                cfg.trials = 509; // odd: a remainder block per chunk
                cfg.threads = 2;
                cfg.metrics = &reg;
                mc::resilienceAtRate(l, 8, 8, scheme, rate, rc, cfg);
                const mc::ResilienceScenario sc =
                    mc::compileResilienceScenario(l, 8, 8, scheme, rate, rc,
                                                  core::directCompile());
                for (const FaultKind kind : kinds) {
                    const double n = static_cast<double>(
                                         sitesOf(kind, sc.universe)) *
                                     static_cast<double>(cfg.trials);
                    const double p = rateOf(kind, sc.rates);
                    const double x = static_cast<double>(
                        reg.counter("mc.resilience.faults." +
                                    faultKindName(kind))
                            .value());
                    const double z =
                        (x - n * p) / std::sqrt(n * p * (1.0 - p));
                    chi2 += z * z;
                    ++cells;
                    if (std::fabs(z) > std::fabs(worstZ)) {
                        worstZ = z;
                        worst = mc::distributionKindName(scheme) + " rate " +
                                std::to_string(rate) + " " +
                                faultKindName(kind);
                    }
                }
            }
        }
        EXPECT_GT(chiSquareSurvival(cells, chi2), 1e-6)
            << "seed " << seed << ": chi2 " << chi2 << " over " << cells
            << " cells; worst " << worst << " z " << worstZ;
    }
}

TEST(Resilience, HybridSurvivalFallsWithFaultRate)
{
    const layout::Layout l = layout::meshLayout(16, 16);
    const hybrid::HybridNetwork net(hybrid::partitionGrid(l, 4.0),
                                    hybrid::HybridParams{});
    mc::McConfig cfg;
    cfg.trials = 24;
    const mc::McResult none = mc::hybridSurvivalSweep(net, 0.0, 8, cfg);
    const mc::McResult some = mc::hybridSurvivalSweep(net, 0.05, 8, cfg);
    EXPECT_DOUBLE_EQ(none.mean(), 1.0);
    EXPECT_LT(some.mean(), 1.0);

    // Bit-identical across thread counts, like every sweep.
    for (const unsigned tc : kThreadCounts) {
        mc::McConfig alt = cfg;
        alt.threads = tc;
        EXPECT_TRUE(mc::hybridSurvivalSweep(net, 0.05, 8, alt)
                        .bitIdentical(some));
    }
}

// --- Advisor integration. -------------------------------------------

TEST(Advisor, FaultRateMovesTreeSchemesToTheRedundantGrid)
{
    core::TechnologyAssumptions tech;
    tech.skewModel = core::SkewModelKind::Difference;
    const auto healthy =
        core::adviseScheme(graph::TopologyKind::Mesh, tech);
    EXPECT_EQ(healthy.scheme, core::SyncScheme::PipelinedHTree);

    tech.faultRate = 0.01;
    const auto faulty =
        core::adviseScheme(graph::TopologyKind::Mesh, tech);
    EXPECT_EQ(faulty.scheme, core::SyncScheme::RedundantGridTrix);
    EXPECT_NE(faulty.justification.find("median"), std::string::npos);

    // Handshake-based picks already degrade gracefully and stand.
    tech.skewModel = core::SkewModelKind::Summation;
    const auto hybridPick =
        core::adviseScheme(graph::TopologyKind::Mesh, tech);
    EXPECT_EQ(hybridPick.scheme, core::SyncScheme::Hybrid);
}

} // namespace
