/**
 * @file
 * Rectilinear polylines used for wire routes.
 *
 * Layouts and clock trees store no routes: a wire is the L-route
 * between its endpoints (lRoute), built when a reader needs the points
 * (clock buffer placement, rendering). Its length equals the endpoints'
 * Manhattan distance, which is what the skew models read.
 */

#ifndef VSYNC_GEOM_PATH_HH
#define VSYNC_GEOM_PATH_HH

#include <vector>

#include "geom/point.hh"

namespace vsync::geom
{

/**
 * A polyline through a sequence of points. Its length (sum of segment
 * Manhattan lengths) is the "physical length" the paper's delay and skew
 * assumptions refer to.
 */
class Path
{
  public:
    Path() = default;

    /** Construct from an explicit point sequence. */
    explicit Path(std::vector<Point> pts) : points(std::move(pts)) {}

    /** Append a point to the end of the path. */
    void append(const Point &p) { points.push_back(p); }

    /** Number of points (segments = points - 1). */
    std::size_t size() const { return points.size(); }

    /** True when the path has no segments. */
    bool empty() const { return points.size() < 2; }

    /** Access the i-th point. */
    const Point &operator[](std::size_t i) const { return points[i]; }

    /** First point. @pre not empty of points. */
    const Point &front() const { return points.front(); }

    /** Last point. @pre not empty of points. */
    const Point &back() const { return points.back(); }

    /** Total Manhattan length of all segments. */
    Length length() const;

    /** Underlying point sequence. */
    const std::vector<Point> &pts() const { return points; }

    /**
     * The point reached after travelling @p dist along the path from its
     * start (clamped to the endpoints). Used to place clock buffers at
     * regular intervals along a route.
     */
    Point pointAt(Length dist) const;

  private:
    std::vector<Point> points;
};

/**
 * An L-shaped (horizontal-then-vertical) Manhattan route from @p a
 * to @p b. Degenerates to a straight segment when aligned.
 */
Path lRoute(const Point &a, const Point &b);

} // namespace vsync::geom

#endif // VSYNC_GEOM_PATH_HH
