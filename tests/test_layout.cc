/**
 * @file
 * Tests for layouts and their generators (Figs 4-6 shapes).
 */

#include <gtest/gtest.h>

#include "layout/generators.hh"
#include "layout/layout.hh"

namespace
{

using namespace vsync;
using namespace vsync::layout;

TEST(LinearLayout, PlacementAndRoutes)
{
    const Layout l = linearLayout(5);
    EXPECT_TRUE(l.validate(false));
    EXPECT_EQ(l.size(), 5u);
    EXPECT_DOUBLE_EQ(l.position(3).x, 3.0);
    EXPECT_DOUBLE_EQ(l.maxEdgeLength(), 1.0);
}

TEST(LinearLayout, PitchScalesDistances)
{
    const Layout l = linearLayout(4, 2.5);
    EXPECT_DOUBLE_EQ(l.maxEdgeLength(), 2.5);
    EXPECT_DOUBLE_EQ(l.boundingBox().width(), 3 * 2.5 + 1.0);
}

TEST(FoldedLayout, EndsMeetAtTheLeft)
{
    const Layout l = foldedLinearLayout(10);
    EXPECT_TRUE(l.validate(false));
    // Cell 0 and cell 9 both sit at x = 0 (adjacent rows).
    EXPECT_DOUBLE_EQ(l.position(0).x, 0.0);
    EXPECT_DOUBLE_EQ(l.position(9).x, 0.0);
    EXPECT_DOUBLE_EQ(geom::manhattan(l.position(0), l.position(9)), 1.0);
    // Neighbours remain at unit distance, including across the fold.
    EXPECT_DOUBLE_EQ(l.maxEdgeLength(), 1.0);
}

TEST(FoldedLayout, OddLength)
{
    const Layout l = foldedLinearLayout(7);
    EXPECT_TRUE(l.validate(false));
    EXPECT_DOUBLE_EQ(l.maxEdgeLength(), 1.0);
}

TEST(SerpentineLayout, AspectRatioFollowsColumnHeight)
{
    const Layout tall = serpentineLayout(64, 32);
    const Layout flat = serpentineLayout(64, 4);
    EXPECT_TRUE(tall.validate(false));
    EXPECT_TRUE(flat.validate(false));
    EXPECT_GT(tall.boundingBox().height(),
              flat.boundingBox().height());
    EXPECT_LT(tall.boundingBox().width(), flat.boundingBox().width());
    // The array remains a unit-step chain in both.
    EXPECT_DOUBLE_EQ(tall.maxEdgeLength(), 1.0);
    EXPECT_DOUBLE_EQ(flat.maxEdgeLength(), 1.0);
}

TEST(SerpentineLayout, CoversAllCellsOnce)
{
    const Layout l = serpentineLayout(30, 7);
    EXPECT_TRUE(l.validate(false)); // includes overlap check
}

TEST(MeshLayout, GridPositions)
{
    const Layout l = meshLayout(3, 4);
    EXPECT_TRUE(l.validate(false));
    EXPECT_DOUBLE_EQ(l.position(0).x, 0.0);
    EXPECT_DOUBLE_EQ(l.position(11).x, 3.0);
    EXPECT_DOUBLE_EQ(l.position(11).y, 2.0);
    EXPECT_DOUBLE_EQ(l.maxEdgeLength(), 1.0);
}

TEST(HexLayout, NeighborsWithinBoundedDistance)
{
    const Layout l = hexLayout(4, 4);
    EXPECT_TRUE(l.validate(false));
    // All six neighbour kinds at Manhattan distance <= 1.5.
    EXPECT_LE(l.maxEdgeLength(), 1.5);
}

TEST(LayeredTreeLayout, RootEdgesAreLong)
{
    const Layout l = layeredTreeLayout(5);
    EXPECT_TRUE(l.validate(false));
    // The naive layered drawing has Theta(N) top-level edges --
    // the problem Section VIII's H-tree solves.
    EXPECT_GT(l.maxEdgeLength(), 4.0);
}

TEST(FromTopology, RingKeepsWrapEdge)
{
    const graph::Topology t = graph::ring(8);
    const Layout l = fromTopology(t);
    EXPECT_TRUE(l.validate(false));
    EXPECT_EQ(l.comm().edgeCount(), t.graph.edgeCount());
    // The wrap link is physically long in the straight-line placement.
    EXPECT_DOUBLE_EQ(l.maxEdgeLength(), 7.0);
}

TEST(Layout, TotalWireLengthCountsPairsOnce)
{
    const Layout l = linearLayout(5);
    // 4 unit links (each bidirectional pair counted once).
    EXPECT_DOUBLE_EQ(l.totalWireLength(), 4.0);
}

TEST(Layout, ValidateCatchesOverlaps)
{
    graph::Graph g(2);
    g.addEdge(0, 1);
    Layout l("bad", g);
    l.place(0, {0.0, 0.0});
    l.place(1, {0.25, 0.0}); // violates unit-area spacing
    EXPECT_FALSE(l.validate(false));
}

TEST(Layout, ValidateCatchesUnplacedCell)
{
    graph::Graph g(2);
    g.addEdge(0, 1);
    Layout l("unplaced", g);
    l.place(0, {0.0, 0.0});
    EXPECT_FALSE(l.validate(false));
    l.place(1, {1.0, 0.0});
    EXPECT_TRUE(l.validate(false));
}

TEST(Layout, BoundingBoxIncludesCellExtent)
{
    const Layout l = linearLayout(3);
    const geom::Rect bb = l.boundingBox();
    EXPECT_DOUBLE_EQ(bb.width(), 3.0);  // 2 pitches + 2 half-cells
    EXPECT_DOUBLE_EQ(bb.height(), 1.0);
    EXPECT_DOUBLE_EQ(bb.area(), 3.0);
}

} // namespace
