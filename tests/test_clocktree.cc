/**
 * @file
 * Tests for clock trees and their builders (Figs 3 and 4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "clocktree/builders.hh"
#include "clocktree/clock_tree.hh"
#include "clocktree/optimize.hh"
#include "common/rng.hh"
#include "geom/path.hh"
#include "graph/topology.hh"
#include "layout/embed.hh"
#include "layout/generators.hh"
#include "treemachine/htree_machine.hh"

namespace
{

using namespace vsync;
using namespace vsync::clocktree;

TEST(ClockTree, ManualConstruction)
{
    ClockTree t;
    const NodeId root = t.addRoot({0, 0});
    const NodeId a = t.addChild(root, {2, 0});
    const NodeId b = t.addChild(root, {0, 3});
    t.bindCell(a, 0);
    t.bindCell(b, 1);
    EXPECT_TRUE(t.validate(false));
    EXPECT_DOUBLE_EQ(t.rootPathLength(a), 2.0);
    EXPECT_DOUBLE_EQ(t.rootPathLength(b), 3.0);
    EXPECT_DOUBLE_EQ(t.pathDifference(a, b), 1.0);
    EXPECT_DOUBLE_EQ(t.treeDistance(a, b), 5.0);
    EXPECT_DOUBLE_EQ(t.maxRootPathLength(), 3.0);
    EXPECT_DOUBLE_EQ(t.totalWireLength(), 5.0);
    EXPECT_EQ(t.nodeOfCell(0), a);
    EXPECT_EQ(t.cellOfNode(b), 1);
    EXPECT_EQ(t.boundCellCount(), 2u);
}

TEST(ClockTree, PadWireLengthensWithoutMoving)
{
    ClockTree t;
    const NodeId root = t.addRoot({0, 0});
    const NodeId a = t.addChild(root, {1, 0});
    t.padWire(a, 2.5);
    EXPECT_DOUBLE_EQ(t.rootPathLength(a), 3.5);
    EXPECT_TRUE(t.validate(false));
}

TEST(ClockTree, TreeDistanceOfAncestorPair)
{
    ClockTree t;
    const NodeId root = t.addRoot({0, 0});
    const NodeId a = t.addChild(root, {1, 0});
    const NodeId b = t.addChild(a, {2, 0});
    // s == d when one node is the other's ancestor.
    EXPECT_DOUBLE_EQ(t.treeDistance(root, b), 2.0);
    EXPECT_DOUBLE_EQ(t.pathDifference(root, b), 2.0);
}

TEST(Spine, NeighborsConstantTreeDistance)
{
    for (int n : {4, 16, 64, 256}) {
        const layout::Layout l = layout::linearLayout(n);
        const ClockTree t = buildSpine(l);
        EXPECT_TRUE(t.validate(false));
        EXPECT_EQ(t.boundCellCount(), static_cast<std::size_t>(n));
        for (int i = 0; i + 1 < n; ++i) {
            const NodeId a = t.nodeOfCell(i);
            const NodeId b = t.nodeOfCell(i + 1);
            EXPECT_DOUBLE_EQ(t.treeDistance(a, b), 1.0);
        }
    }
}

TEST(Spine, RootPathGrowsLinearly)
{
    const layout::Layout l = layout::linearLayout(100);
    const ClockTree t = buildSpine(l);
    EXPECT_DOUBLE_EQ(t.maxRootPathLength(), 100.0);
}

TEST(Chain, FollowsGivenOrder)
{
    const layout::Layout l = layout::foldedLinearLayout(8);
    std::vector<CellId> order{0, 1, 2, 3, 4, 5, 6, 7};
    const ClockTree t = buildChain(l, order, {-1.0, 0.0});
    EXPECT_TRUE(t.validate(false));
    // Across the fold (cells 3 and 4) the chain step is one pitch.
    EXPECT_DOUBLE_EQ(
        t.treeDistance(t.nodeOfCell(3), t.nodeOfCell(4)), 1.0);
}

TEST(HTree, PowerOfTwoMeshIsExactlyEquidistant)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const ClockTree t = buildHTreeGrid(l, 8, 8, false);
    EXPECT_TRUE(t.validate(false));
    EXPECT_EQ(t.boundCellCount(), 64u);
    const Length h0 = t.rootPathLength(t.nodeOfCell(0));
    for (CellId c = 0; c < 64; ++c)
        EXPECT_NEAR(t.rootPathLength(t.nodeOfCell(c)), h0, 1e-9)
            << "cell " << c;
}

TEST(HTree, EqualizedNonPowerOfTwo)
{
    const layout::Layout l = layout::meshLayout(5, 7);
    const ClockTree t = buildHTreeGrid(l, 5, 7, true);
    const Length h0 = t.rootPathLength(t.nodeOfCell(0));
    for (CellId c = 0; c < 35; ++c)
        EXPECT_NEAR(t.rootPathLength(t.nodeOfCell(c)), h0, 1e-9);
}

TEST(HTree, LinearArrayEquidistant)
{
    const layout::Layout l = layout::linearLayout(16);
    const ClockTree t = buildHTreeLinear(l, false);
    const Length h0 = t.rootPathLength(t.nodeOfCell(0));
    for (CellId c = 0; c < 16; ++c)
        EXPECT_NEAR(t.rootPathLength(t.nodeOfCell(c)), h0, 1e-9);
}

TEST(HTree, HexArrayEqualizedEquidistant)
{
    const layout::Layout l = layout::hexLayout(4, 4);
    const ClockTree t = buildHTreeGrid(l, 4, 4, true);
    const Length h0 = t.rootPathLength(t.nodeOfCell(0));
    for (CellId c = 0; c < 16; ++c)
        EXPECT_NEAR(t.rootPathLength(t.nodeOfCell(c)), h0, 1e-9);
}

TEST(HTree, WireAreaWithinConstantFactorOfLayout)
{
    for (int n : {8, 16, 32}) {
        const layout::Layout l = layout::meshLayout(n, n);
        const ClockTree t = buildHTreeGrid(l, n, n, false);
        // Lemma 1: total clock wiring is O(layout area).
        EXPECT_LE(t.totalWireLength(), 4.0 * l.boundingBox().area())
            << n;
    }
}

TEST(RecursiveBisection, BindsAllCells)
{
    const layout::Layout l = layout::meshLayout(6, 5);
    const ClockTree t = buildRecursiveBisection(l);
    EXPECT_TRUE(t.validate(false));
    EXPECT_EQ(t.boundCellCount(), 30u);
    for (CellId c = 0; c < 30; ++c)
        EXPECT_NE(t.nodeOfCell(c), invalidId);
}

TEST(RandomTree, ValidAndComplete)
{
    Rng rng(77);
    const layout::Layout l = layout::meshLayout(4, 4);
    for (int trial = 0; trial < 5; ++trial) {
        const ClockTree t = buildRandomTree(l, rng);
        EXPECT_TRUE(t.validate(false));
        EXPECT_EQ(t.boundCellCount(), 16u);
    }
}

TEST(RandomTree, DifferentSeedsGiveDifferentShapes)
{
    Rng r1(1), r2(2);
    const layout::Layout l = layout::meshLayout(4, 4);
    const ClockTree a = buildRandomTree(l, r1);
    const ClockTree b = buildRandomTree(l, r2);
    // Total wire length almost surely differs between seeds.
    EXPECT_NE(a.totalWireLength(), b.totalWireLength());
}

TEST(Spine, ExpandabilityAppendWithoutReanalysis)
{
    // The paper's modularity claim: extend a running 1-D array by
    // appending cells to the spine; existing bindings, distances and
    // the worst communicating-pair separation are untouched.
    const layout::Layout small = layout::linearLayout(16);
    ClockTree t = buildSpine(small);
    const Length h5_before = t.rootPathLength(t.nodeOfCell(5));

    // Append 16 more cells by continuing the chain.
    NodeId tail = t.nodeOfCell(15);
    for (int i = 16; i < 32; ++i) {
        const NodeId node =
            t.addChild(tail, {static_cast<Length>(i), 0.0});
        t.bindCell(node, i);
        tail = node;
    }
    EXPECT_TRUE(t.validate(false));
    EXPECT_EQ(t.boundCellCount(), 32u);
    // Old cells unchanged.
    EXPECT_DOUBLE_EQ(t.rootPathLength(t.nodeOfCell(5)), h5_before);
    // Every neighbouring pair, old or new, still one pitch apart.
    for (int i = 0; i + 1 < 32; ++i) {
        EXPECT_DOUBLE_EQ(
            t.treeDistance(t.nodeOfCell(i), t.nodeOfCell(i + 1)), 1.0);
    }
}

TEST(ClockTree, SingleCellLayouts)
{
    const layout::Layout l = layout::linearLayout(1);
    const ClockTree spine = buildSpine(l);
    EXPECT_EQ(spine.boundCellCount(), 1u);
    const ClockTree h = buildHTreeLinear(l);
    EXPECT_EQ(h.boundCellCount(), 1u);
    const ClockTree rb = buildRecursiveBisection(l);
    EXPECT_EQ(rb.boundCellCount(), 1u);
}

/**
 * Layout lengths are folds of the L-route between each comm edge's
 * endpoint placements, in edge-id order, with totalWireLength's rule
 * of counting a pair once (skip an edge whose reverse came earlier).
 */
void
expectLengthsAreLRouteFolds(const layout::Layout &l)
{
    Length longest = 0.0, total = 0.0;
    std::set<std::pair<CellId, CellId>> seen;
    for (const graph::Edge &e : l.comm().allEdges()) {
        const Length len =
            geom::lRoute(l.position(e.src), l.position(e.dst)).length();
        longest = std::max(longest, len);
        if (!seen.count({e.dst, e.src}))
            total += len;
        seen.insert({e.src, e.dst});
    }
    EXPECT_EQ(l.maxEdgeLength(), longest) << l.layoutName();
    EXPECT_EQ(l.totalWireLength(), total) << l.layoutName();
}

/**
 * Every wire of @p t has the L-route's length between its endpoints,
 * plus the Lemma 1 padding that @p padded trees add: the deficit of a
 * bound node's root path to the longest bound one in @p unpadded, the
 * same builder run with equalize = false. wire(v) runs between the
 * two positions.
 */
void
expectWiresAreLRoutes(const ClockTree &t, const ClockTree *unpadded = nullptr)
{
    Length max_h = 0.0;
    if (unpadded) {
        ASSERT_EQ(unpadded->size(), t.size()) << t.name;
        for (NodeId v = 0; static_cast<std::size_t>(v) < t.size(); ++v)
            if (unpadded->cellOfNode(v) != invalidId)
                max_h = std::max(max_h, unpadded->rootPathLength(v));
    }
    EXPECT_EQ(t.wireLength(t.root()), 0.0) << t.name;
    for (NodeId v = 1; static_cast<std::size_t>(v) < t.size(); ++v) {
        const geom::Point &from = t.position(t.structure().parent(v));
        Length expected = geom::lRoute(from, t.position(v)).length();
        if (unpadded && t.cellOfNode(v) != invalidId) {
            const Length deficit = max_h - unpadded->rootPathLength(v);
            if (deficit > 1e-12)
                expected += deficit;
        }
        EXPECT_EQ(t.wireLength(v), expected) << t.name << " node " << v;
        const geom::Path route = t.wire(v);
        EXPECT_EQ(route.front(), from) << t.name << " node " << v;
        EXPECT_EQ(route.back(), t.position(v)) << t.name << " node " << v;
    }
    EXPECT_TRUE(t.validate(false)) << t.name;
}

TEST(DerivedRoutes, EveryGeneratorAndBuilderMatchesLRoutes)
{
    const layout::Layout linear = layout::linearLayout(9, 1.5);
    const layout::Layout folded = layout::foldedLinearLayout(11);
    const layout::Layout comb = layout::serpentineLayout(30, 7);
    const layout::Layout racetrack = layout::racetrackRingLayout(12);
    const layout::Layout mesh = layout::meshLayout(8, 8);
    const layout::Layout odd_mesh = layout::meshLayout(3, 5);
    const layout::Layout hex = layout::hexLayout(4, 4);
    const layout::Layout layered = layout::layeredTreeLayout(5);
    const layout::Layout ring = layout::fromTopology(graph::ring(8));
    const layout::Layout torus = layout::fromTopology(graph::torus(4, 6));
    const layout::Layout embedded = layout::embedMeshNearSquare(2, 32);
    const treemachine::TreeMachineLayout machine =
        treemachine::buildHTreeMachine(5);
    for (const layout::Layout *l :
         {&linear, &folded, &comb, &racetrack, &mesh, &odd_mesh, &hex,
          &layered, &ring, &torus, &embedded, &machine.layout})
        expectLengthsAreLRouteFolds(*l);

    expectWiresAreLRoutes(buildChain(linear, {4, 3, 5, 2, 6, 1, 7, 0, 8},
                                     {-2.0, 3.0}));
    expectWiresAreLRoutes(buildSpine(comb));
    for (const auto &[grid, rows, cols] :
         {std::tuple{&mesh, 8, 8}, std::tuple{&odd_mesh, 3, 5},
          std::tuple{&hex, 4, 4}}) {
        const ClockTree unpadded = buildHTreeGrid(*grid, rows, cols, false);
        expectWiresAreLRoutes(unpadded);
        expectWiresAreLRoutes(buildHTreeGrid(*grid, rows, cols), &unpadded);
    }
    const ClockTree unpadded_linear = buildHTreeLinear(linear, false);
    expectWiresAreLRoutes(buildHTreeLinear(linear), &unpadded_linear);
    expectWiresAreLRoutes(buildRecursiveBisection(hex));
    Rng rng(0x5eed);
    expectWiresAreLRoutes(buildRandomTree(odd_mesh, rng));
    expectWiresAreLRoutes(buildDoubleComb(racetrack));
    expectWiresAreLRoutes(buildGreedyMatching(mesh));
    expectWiresAreLRoutes(optimizeTree(odd_mesh, rng, 50).tree);
    expectWiresAreLRoutes(treemachine::buildClockAlongDataPaths(machine));
}

} // namespace
