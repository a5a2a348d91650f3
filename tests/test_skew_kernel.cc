/**
 * @file
 * core::SkewKernel: the flattened batch skew-query kernel.
 *
 * The kernel's contract is "same answers, flat state": every query
 * must agree bitwise with the pointer-chasing surface it replaced.
 * The NCA property test drives randomized tree shapes (seeded via
 * Rng::forTrial, so failures reproduce by trial index) and every comm
 * pair of a spine and an H-tree mesh against graph::RootedTree::nca;
 * the sweep tests pin the Monte-Carlo bit-identity guarantee at 1/2/8
 * threads. The lane-blocked entry points have their own suite in
 * test_skew_block.cc.
 */

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "clocktree/builders.hh"
#include "common/rng.hh"
#include "core/skew_analysis.hh"
#include "core/skew_kernel.hh"
#include "layout/generators.hh"
#include "mc/sweeps.hh"
#include "obs/metrics.hh"
#include "test_util.hh"

namespace
{

using namespace vsync;
using core::SkewKernel;
using core::WireDelay;
using testutil::randomTree;

TEST(SkewKernelNca, MatchesNaiveParentClimbOnRandomizedTrees)
{
    const layout::Layout l = layout::linearLayout(2);
    for (std::uint64_t trial = 0; trial < 25; ++trial) {
        Rng rng = Rng::forTrial(0x9ca5eed, trial);
        const std::size_t n = 2 + rng.uniformInt(60);
        const clocktree::ClockTree t = randomTree(n, rng);
        const SkewKernel kernel(l, t);

        ASSERT_EQ(kernel.nodeCount(), n) << "trial " << trial;
        for (NodeId a = 0; static_cast<std::size_t>(a) < n; ++a) {
            for (NodeId b = a; static_cast<std::size_t>(b) < n; ++b) {
                EXPECT_EQ(kernel.nca(a, b), t.structure().nca(a, b))
                    << "trial " << trial << " pair " << a << "," << b;
                // Same arithmetic, so bitwise equality is required.
                EXPECT_EQ(kernel.treeDistance(a, b),
                          t.treeDistance(a, b))
                    << "trial " << trial;
                EXPECT_EQ(kernel.pathDifference(a, b),
                          t.pathDifference(a, b))
                    << "trial " << trial;
                // ClockTree's own id-order climb against the reference.
                const NodeId ref = t.structure().nca(a, b);
                EXPECT_EQ(t.treeDistance(a, b),
                          t.rootPathLength(a) + t.rootPathLength(b) -
                              2.0 * t.rootPathLength(ref))
                    << "trial " << trial;
            }
        }
    }

    // Long climbs: every comm pair of a spine mesh (vertical neighbours
    // sit about 2 * cols hops apart) and of a 64x64 H-tree, whose
    // 12,287 nodes dwarf the random trees above.
    const layout::Layout spine = layout::meshLayout(16, 16);
    const layout::Layout htree = layout::meshLayout(64, 64);
    const std::pair<const layout::Layout *, clocktree::ClockTree>
        scenarios[] = {
            {&spine, clocktree::buildSpine(spine)},
            {&htree, clocktree::buildHTreeGrid(htree, 64, 64)},
        };
    for (const auto &[mesh, t] : scenarios) {
        const SkewKernel kernel(*mesh, t);
        ASSERT_GT(kernel.pairCount(), 0u);
        for (std::size_t i = 0; i < kernel.pairCount(); ++i) {
            const NodeId a = kernel.pairNodesA()[i];
            const NodeId b = kernel.pairNodesB()[i];
            ASSERT_EQ(kernel.nca(a, b), t.structure().nca(a, b))
                << t.size() << " nodes, pair " << i;
            ASSERT_EQ(kernel.treeDistance(a, b), t.treeDistance(a, b))
                << t.size() << " nodes, pair " << i;
        }
    }
}

TEST(SkewKernel, CompilesHTreeScenarioFaithfully)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const auto tree = clocktree::buildHTreeGrid(l, 8, 8);
    const SkewKernel kernel(l, tree);

    EXPECT_TRUE(kernel.hasTree());
    EXPECT_EQ(kernel.nodeCount(), tree.size());
    EXPECT_EQ(kernel.cellCount(), l.size());
    EXPECT_EQ(kernel.pairCount(), l.comm().undirectedEdges().size());

    // Flat arrays mirror the tree: parent, wire length, prefix h.
    for (NodeId v = 1; static_cast<std::size_t>(v) < tree.size(); ++v) {
        EXPECT_EQ(kernel.parent(v), tree.structure().parent(v));
        EXPECT_EQ(kernel.wireLength(v), tree.wireLength(v));
        EXPECT_EQ(kernel.rootPathLength(v), tree.rootPathLength(v));
    }
    for (CellId c = 0; static_cast<CellId>(l.size()) > c; ++c)
        EXPECT_EQ(kernel.nodeOfCell(c), tree.nodeOfCell(c));

    // Pair endpoints preserve undirectedEdges order.
    const auto edges = l.comm().undirectedEdges();
    for (std::size_t i = 0; i < edges.size(); ++i) {
        EXPECT_EQ(kernel.pairCellsA()[i], edges[i].src);
        EXPECT_EQ(kernel.pairCellsB()[i], edges[i].dst);
        EXPECT_EQ(kernel.pairNodesA()[i],
                  tree.nodeOfCell(edges[i].src));
        EXPECT_EQ(kernel.pairNodesB()[i],
                  tree.nodeOfCell(edges[i].dst));
    }
}

TEST(SkewKernel, ArrivalsReproduceNaiveSamplerBitwise)
{
    const layout::Layout l = layout::meshLayout(6, 6);
    const auto tree = clocktree::buildHTreeGrid(l, 6, 6);
    const SkewKernel kernel(l, tree);
    const WireDelay delay{0.05, 0.005};

    std::vector<Time> arrival(kernel.nodeCount());
    for (std::uint64_t trial = 0; trial < 8; ++trial) {
        Rng naive_rng = Rng::forTrial(777, trial);
        const core::SkewInstance inst =
            core::sampleSkewInstance(l, tree, delay, naive_rng);

        Rng kernel_rng = Rng::forTrial(777, trial);
        kernel.arrivals(delay, kernel_rng, arrival);

        // Identical draw sequence -> identical arrivals, bit for bit.
        ASSERT_EQ(arrival.size(), inst.arrival.size());
        for (std::size_t v = 0; v < arrival.size(); ++v)
            EXPECT_EQ(arrival[v], inst.arrival[v]) << "trial " << trial;
        EXPECT_EQ(kernel.maxCommSkew(arrival), inst.maxCommSkew);
        EXPECT_EQ(naive_rng.draws(), kernel_rng.draws());
    }
}

TEST(SkewKernel, SkewSweepBitIdenticalToNaiveSamplerAtAnyThreadCount)
{
    // The acceptance gate of the kernel rewire: mc::skewSweep results
    // are unchanged by the kernel for the same seed, at every thread
    // count.
    const layout::Layout l = layout::meshLayout(6, 6);
    const auto tree = clocktree::buildHTreeGrid(l, 6, 6);
    const WireDelay delay{0.05, 0.005};

    mc::McConfig cfg;
    cfg.seed = 0xfeedface;
    cfg.trials = 24;
    cfg.grain = 4;

    std::vector<double> reference(cfg.trials, 0.0);
    for (std::size_t i = 0; i < cfg.trials; ++i) {
        Rng rng = Rng::forTrial(cfg.seed, i);
        reference[i] =
            core::sampleSkewInstance(l, tree, delay, rng).maxCommSkew;
    }

    for (const unsigned threads : {1u, 2u, 8u}) {
        cfg.threads = threads;
        const mc::McResult sweep = mc::skewSweep(l, tree, delay, cfg);
        ASSERT_EQ(sweep.samples.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i)
            EXPECT_EQ(sweep.samples[i], reference[i])
                << "threads " << threads << " trial " << i;
    }
}

TEST(SkewKernel, PairsOnlyKernelEvaluatesArrivalSurfaces)
{
    // linearLayout(3): pairs (0,1) and (1,2); cell 2 never clocked.
    const layout::Layout l = layout::linearLayout(3);
    const SkewKernel kernel(l);
    EXPECT_FALSE(kernel.hasTree());
    EXPECT_EQ(kernel.nodeCount(), 0u);

    const std::vector<Time> arrival{0.0, 0.5, infinity};
    const core::ArrivalSkew skew = kernel.arrivalSkew(arrival);
    EXPECT_DOUBLE_EQ(skew.clockedFraction, 2.0 / 3.0);
    EXPECT_EQ(skew.pairCount, 2u);
    EXPECT_EQ(skew.clockedPairs, 1u);
    EXPECT_DOUBLE_EQ(skew.maxCommSkew, 0.5);

    // skewFromArrivals is now a thin wrapper over the same kernel.
    const core::ArrivalSkew wrapped = core::skewFromArrivals(l, arrival);
    EXPECT_EQ(wrapped.clockedFraction, skew.clockedFraction);
    EXPECT_EQ(wrapped.maxCommSkew, skew.maxCommSkew);
    EXPECT_EQ(wrapped.clockedPairs, skew.clockedPairs);
    EXPECT_EQ(wrapped.pairCount, skew.pairCount);
}

TEST(SkewKernel, AnalyzeSkewKernelOverloadMatchesScenarioOverload)
{
    const layout::Layout l = layout::meshLayout(5, 5);
    const auto tree = clocktree::buildHTreeGrid(l, 5, 5);
    const auto model = core::SkewModel::summation(0.05, 0.005);

    const core::SkewReport a = core::analyzeSkew(l, tree, model);
    const SkewKernel kernel(l, tree);
    const core::SkewReport b = core::analyzeSkew(kernel, model);

    ASSERT_EQ(a.edges.size(), b.edges.size());
    EXPECT_EQ(a.maxSkewUpper, b.maxSkewUpper);
    EXPECT_EQ(a.maxSkewLower, b.maxSkewLower);
    EXPECT_EQ(a.maxD, b.maxD);
    EXPECT_EQ(a.maxS, b.maxS);
    EXPECT_EQ(a.worstIndex, b.worstIndex);
    for (std::size_t i = 0; i < a.edges.size(); ++i) {
        EXPECT_EQ(a.edges[i].d, b.edges[i].d);
        EXPECT_EQ(a.edges[i].s, b.edges[i].s);
        EXPECT_EQ(a.edges[i].upper, b.edges[i].upper);
        EXPECT_EQ(a.edges[i].lower, b.edges[i].lower);
    }
}

TEST(SkewKernel, ExportsStatsThroughMetricsRegistry)
{
    const layout::Layout l = layout::meshLayout(4, 4);
    const auto tree = clocktree::buildHTreeGrid(l, 4, 4);
    const SkewKernel kernel(l, tree);

    Rng rng(1);
    std::vector<Time> scratch;
    (void)kernel.sampleMaxCommSkew(WireDelay{0.05, 0.005}, rng, scratch);

    obs::MetricsRegistry reg;
    kernel.exportMetrics(reg);
    EXPECT_EQ(reg.gauge("core.skew_kernel.nodes").value(),
              static_cast<double>(kernel.nodeCount()));
    EXPECT_EQ(reg.gauge("core.skew_kernel.pairs").value(),
              static_cast<double>(kernel.pairCount()));
    EXPECT_EQ(reg.gauge("core.skew_kernel.compact_rows").value(),
              static_cast<double>(kernel.compactRows()));
    EXPECT_GT(kernel.compactRows(), 0u);
    EXPECT_GE(reg.gauge("core.skew_kernel.build_ms").value(), 0.0);
    EXPECT_EQ(reg.gauge("core.skew_kernel.queries_served").value(),
              static_cast<double>(kernel.pairCount()));
    EXPECT_EQ(reg.gauge("core.skew_kernel.arrival_batches").value(),
              1.0);
}

TEST(SkewKernelDeath, GuardsDegenerateInputs)
{
    const layout::Layout l = layout::linearLayout(3);
    const SkewKernel pairs_only(l);
    EXPECT_DEATH((void)pairs_only.nca(0, 0), "tree");

    const auto tree = clocktree::buildSpine(l);
    const SkewKernel kernel(l, tree);
    Rng rng(2);
    std::vector<Time> arrival(kernel.nodeCount());
    EXPECT_DEATH(
        kernel.arrivals(WireDelay{0.05, 0.5}, rng,
                        std::span<Time>(arrival)),
        "bad delay");

    mc::McConfig zero_trials;
    zero_trials.trials = 0;
    EXPECT_DEATH((void)mc::runTrials(zero_trials,
                                     [](std::uint64_t, Rng &) {
                                         return 0.0;
                                     }),
                 "trials must be positive");
    mc::McConfig zero_grain;
    zero_grain.grain = 0;
    EXPECT_DEATH((void)mc::runTrials(zero_grain,
                                     [](std::uint64_t, Rng &) {
                                         return 0.0;
                                     }),
                 "grain must be positive");
}

} // namespace
