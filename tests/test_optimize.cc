/**
 * @file
 * Tests for the clock-tree optimizer: greedy matching and the regraft
 * local search, including the key negative result that optimisation
 * cannot defeat the Theorem 6 lower bound on meshes.
 */

#include <gtest/gtest.h>

#include "clocktree/builders.hh"
#include "clocktree/optimize.hh"
#include "common/rng.hh"
#include "core/lower_bound.hh"
#include "layout/generators.hh"

namespace
{

using namespace vsync;
using namespace vsync::clocktree;

TEST(GreedyMatching, ValidAndComplete)
{
    for (int n : {1, 2, 5, 16}) {
        const layout::Layout l = layout::linearLayout(n);
        const ClockTree t = buildGreedyMatching(l);
        EXPECT_TRUE(t.validate(false)) << n;
        EXPECT_EQ(t.boundCellCount(), static_cast<std::size_t>(n));
    }
}

TEST(GreedyMatching, MergesNearestFirstOnALine)
{
    // Cells at 0, 1, 10: the 0-1 pair must share a deeper ancestor
    // than either does with the far cell.
    graph::Graph g(3);
    g.addBidirectional(0, 1);
    g.addBidirectional(1, 2);
    layout::Layout l("spread", g);
    l.place(0, {0.0, 0.0});
    l.place(1, {1.0, 0.0});
    l.place(2, {10.0, 0.0});

    const ClockTree t = buildGreedyMatching(l);
    const NodeId a = t.nodeOfCell(0), b = t.nodeOfCell(1),
                 c = t.nodeOfCell(2);
    EXPECT_LT(t.treeDistance(a, b), t.treeDistance(a, c));
    EXPECT_LT(t.treeDistance(a, b), t.treeDistance(b, c));
}

TEST(GreedyMatching, MeshObjectiveComparableToHTree)
{
    const int n = 8;
    const layout::Layout l = layout::meshLayout(n, n);
    const ClockTree greedy = buildGreedyMatching(l);
    const ClockTree htree = buildHTreeGrid(l, n, n);
    const double og = maxCommTreeDistance(l, greedy);
    const double oh = maxCommTreeDistance(l, htree);
    // Greedy clustering lands in the same ballpark as the H-tree.
    EXPECT_LT(og, 3.0 * oh);
}

TEST(MaxCommTreeDistance, MatchesSkewAnalysisMaxS)
{
    const layout::Layout l = layout::meshLayout(5, 5);
    const ClockTree t = buildRecursiveBisection(l);
    double expected = 0.0;
    for (const graph::Edge &e : l.comm().undirectedEdges()) {
        expected = std::max(
            expected, t.treeDistance(t.nodeOfCell(e.src),
                                     t.nodeOfCell(e.dst)));
    }
    EXPECT_DOUBLE_EQ(maxCommTreeDistance(l, t), expected);
}

TEST(OptimizeTree, NeverWorseThanStart)
{
    Rng rng(61);
    const layout::Layout l = layout::meshLayout(6, 6);
    const auto result = optimizeTree(l, rng, 150);
    EXPECT_LE(result.finalObjective, result.initialObjective);
    EXPECT_TRUE(result.tree.validate(false));
    EXPECT_EQ(result.tree.boundCellCount(), 36u);
    EXPECT_DOUBLE_EQ(maxCommTreeDistance(l, result.tree),
                     result.finalObjective);
}

TEST(OptimizeTree, ImprovesBadStartsOnLinearArrays)
{
    // On a line the spine is optimal (max s = 1); the optimizer should
    // at least approach it from the greedy start.
    Rng rng(67);
    const layout::Layout l = layout::linearLayout(16);
    const auto result = optimizeTree(l, rng, 300);
    EXPECT_LE(result.finalObjective, result.initialObjective);
    EXPECT_LE(result.finalObjective, 16.0);
}

/** The headline negative result: no amount of optimisation beats the
 *  Theorem 6 bound on meshes. */
class OptimizerVsLowerBound : public ::testing::TestWithParam<int>
{
};

TEST_P(OptimizerVsLowerBound, CannotBeatTheorem6)
{
    const int n = GetParam();
    const double beta = 0.05;
    Rng rng(71);
    const layout::Layout l = layout::meshLayout(n, n);
    const auto result = optimizeTree(l, rng, 200);
    const double achieved = beta * result.finalObjective;
    const double bound =
        core::theorem6Bound(l.size(), core::meshCutWidth(n), beta);
    EXPECT_GE(achieved, bound) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, OptimizerVsLowerBound,
                         ::testing::Values(4, 6, 8, 10));

} // namespace
