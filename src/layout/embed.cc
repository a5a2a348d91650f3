#include "layout/embed.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "graph/topology.hh"

namespace vsync::layout
{

namespace
{

/** Integer coordinate used during folding. */
struct Coord
{
    long x;
    long y;
};

/**
 * Fold a coordinate set in half along x with row interleaving:
 * (x, y) with x < w stays at (x, 2y); (x, y) with x >= w maps to
 * (2w - 1 - x, 2y + 1). Width halves, height doubles, cells remain on
 * distinct integer coordinates.
 */
void
foldX(std::vector<Coord> &coords, long width)
{
    const long w = (width + 1) / 2;
    for (Coord &c : coords) {
        if (c.x < w) {
            c.y = 2 * c.y;
        } else {
            c.x = 2 * w - 1 - c.x;
            c.y = 2 * c.y + 1;
        }
    }
}

/** Transpose the coordinate set (swap x and y). */
void
transpose(std::vector<Coord> &coords)
{
    for (Coord &c : coords)
        std::swap(c.x, c.y);
}

} // namespace

Layout
embedMeshNearSquare(int rows, int cols, double targetAspect,
                    EmbedStats *stats)
{
    VSYNC_ASSERT(rows >= 1 && cols >= 1, "bad mesh dims %dx%d",
                 rows, cols);
    VSYNC_ASSERT(targetAspect >= 1.0, "target aspect must be >= 1");

    graph::Topology t = graph::mesh(rows, cols);
    std::vector<Coord> coords(t.coords.size());
    for (std::size_t i = 0; i < t.coords.size(); ++i)
        coords[i] = {t.coords[i][0], t.coords[i][1]};

    long width = cols, height = rows;
    int folds = 0;
    // Fold the longer dimension until the aspect ratio target is met.
    // Each fold halves one dimension and doubles the other, so the
    // iteration terminates once the two are within a factor of 2 of the
    // target (or dimensions become too small to fold).
    while (folds < 40) {
        const double aspect =
            static_cast<double>(std::max(width, height)) /
            static_cast<double>(std::max(1L, std::min(width, height)));
        if (aspect <= targetAspect)
            break;
        if (width < height)
            transpose(coords), std::swap(width, height);
        if (width < 2)
            break;
        foldX(coords, width);
        width = (width + 1) / 2;
        height *= 2;
        ++folds;
    }

    Layout l(csprintf("embedded-mesh-%dx%d", rows, cols),
             std::move(t.graph));
    for (std::size_t i = 0; i < coords.size(); ++i) {
        l.place(static_cast<CellId>(i),
                {static_cast<Length>(coords[i].x),
                 static_cast<Length>(coords[i].y)});
    }

    if (stats) {
        const geom::Rect bb = l.boundingBox();
        stats->area = bb.area();
        stats->originalArea =
            static_cast<double>(rows) * static_cast<double>(cols);
        stats->areaFactor = stats->area / stats->originalArea;
        stats->dilation = l.maxEdgeLength();
        stats->aspectRatio = bb.aspectRatio();
        stats->folds = folds;
    }
    return l;
}

} // namespace vsync::layout
