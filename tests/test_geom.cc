/**
 * @file
 * Tests for points, paths and rectangles.
 */

#include <gtest/gtest.h>

#include "geom/path.hh"
#include "geom/point.hh"
#include "geom/rect.hh"

namespace
{

using vsync::geom::lRoute;
using vsync::geom::Path;
using vsync::geom::Point;
using vsync::geom::Rect;

TEST(Point, Distances)
{
    const Point a{0, 0}, b{3, 4};
    EXPECT_DOUBLE_EQ(manhattan(a, b), 7.0);
    EXPECT_DOUBLE_EQ(euclidean(a, b), 5.0);
}

TEST(Point, Arithmetic)
{
    const Point a{1, 2}, b{3, -1};
    EXPECT_EQ(a + b, Point(4, 1));
    EXPECT_EQ(b - a, Point(2, -3));
    EXPECT_EQ(a * 2.0, Point(2, 4));
}

TEST(Path, LengthOfPolyline)
{
    Path p({{0, 0}, {2, 0}, {2, 3}});
    EXPECT_DOUBLE_EQ(p.length(), 5.0);
    EXPECT_FALSE(p.empty());
    EXPECT_EQ(p.front(), Point(0, 0));
    EXPECT_EQ(p.back(), Point(2, 3));
}

TEST(Path, EmptyAndSinglePoint)
{
    Path p;
    EXPECT_TRUE(p.empty());
    p.append({1, 1});
    EXPECT_TRUE(p.empty()); // one point = no segments
    EXPECT_DOUBLE_EQ(p.length(), 0.0);
}

TEST(Path, PointAtInterpolates)
{
    Path p({{0, 0}, {2, 0}, {2, 3}});
    EXPECT_EQ(p.pointAt(0.0), Point(0, 0));
    EXPECT_EQ(p.pointAt(1.0), Point(1, 0));
    EXPECT_EQ(p.pointAt(2.0), Point(2, 0));
    EXPECT_EQ(p.pointAt(3.5), Point(2, 1.5));
    EXPECT_EQ(p.pointAt(99.0), Point(2, 3)); // clamped
    EXPECT_EQ(p.pointAt(-1.0), Point(0, 0)); // clamped
}

TEST(Routes, LRouteShape)
{
    const Path p = lRoute({0, 0}, {3, 4});
    EXPECT_EQ(p.size(), 3u);
    EXPECT_EQ(p[1], Point(3, 0));
    EXPECT_DOUBLE_EQ(p.length(), 7.0);
}

TEST(Routes, LRouteDegeneratesWhenAligned)
{
    const Path p = lRoute({0, 0}, {0, 5});
    EXPECT_EQ(p.size(), 2u);
    EXPECT_DOUBLE_EQ(p.length(), 5.0);
}

TEST(Rect, AreaAspectContains)
{
    Rect r{0, 0, 4, 2};
    EXPECT_DOUBLE_EQ(r.area(), 8.0);
    EXPECT_DOUBLE_EQ(r.aspectRatio(), 2.0);
    EXPECT_TRUE(r.contains({2, 1}));
    EXPECT_FALSE(r.contains({5, 1}));
}

TEST(Rect, BoundingBoxOfPoints)
{
    const std::vector<Point> pts{{1, 5}, {-2, 0}, {3, 3}};
    const Rect r = Rect::boundingBox(pts.begin(), pts.end());
    EXPECT_DOUBLE_EQ(r.x0, -2.0);
    EXPECT_DOUBLE_EQ(r.y0, 0.0);
    EXPECT_DOUBLE_EQ(r.x1, 3.0);
    EXPECT_DOUBLE_EQ(r.y1, 5.0);
}

TEST(Rect, DegenerateAspectIsInfinite)
{
    Rect r{0, 0, 0, 4};
    EXPECT_EQ(r.aspectRatio(), vsync::infinity);
}

} // namespace
