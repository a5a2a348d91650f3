#include "geom/path.hh"

#include "common/logging.hh"

namespace vsync::geom
{

Length
Path::length() const
{
    Length total = 0.0;
    for (std::size_t i = 1; i < points.size(); ++i)
        total += manhattan(points[i - 1], points[i]);
    return total;
}

Point
Path::pointAt(Length dist) const
{
    VSYNC_ASSERT(!points.empty(), "pointAt on empty path");
    if (dist <= 0.0)
        return points.front();
    for (std::size_t i = 1; i < points.size(); ++i) {
        const Length seg = manhattan(points[i - 1], points[i]);
        if (dist <= seg && seg > 0.0) {
            const double t = dist / seg;
            const Point &a = points[i - 1];
            const Point &b = points[i];
            return {a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
        }
        dist -= seg;
    }
    return points.back();
}

Path
lRoute(const Point &a, const Point &b)
{
    Path p;
    p.append(a);
    if (a.x != b.x && a.y != b.y)
        p.append({b.x, a.y});
    p.append(b);
    return p;
}

} // namespace vsync::geom
