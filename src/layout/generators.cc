#include "layout/generators.hh"

#include <utility>

#include "common/logging.hh"

namespace vsync::layout
{

Layout
linearLayout(int n, Length pitch)
{
    graph::Topology t = graph::linearArray(n);
    Layout l(csprintf("linear-%d", n), std::move(t.graph));
    for (int i = 0; i < n; ++i)
        l.place(i, {i * pitch, 0.0});
    return l;
}

Layout
foldedLinearLayout(int n, Length pitch)
{
    VSYNC_ASSERT(n >= 2, "folded layout needs n >= 2, got %d", n);
    graph::Topology t = graph::linearArray(n);
    Layout l(csprintf("folded-%d", n), std::move(t.graph));
    const int half = (n + 1) / 2;
    for (int i = 0; i < n; ++i) {
        if (i < half) {
            l.place(i, {i * pitch, 0.0});
        } else {
            // Top row runs right-to-left, starting directly above the
            // fold cell so the fold edge stays one pitch long.
            l.place(i, {(2 * half - 1 - i) * pitch, pitch});
        }
    }
    return l;
}

Layout
serpentineLayout(int n, int columnHeight, Length pitch)
{
    VSYNC_ASSERT(n >= 1, "serpentine layout needs n >= 1");
    VSYNC_ASSERT(columnHeight >= 1, "column height must be >= 1, got %d",
                 columnHeight);
    graph::Topology t = graph::linearArray(n);
    Layout l(csprintf("comb-%d-h%d", n, columnHeight), std::move(t.graph));
    for (int i = 0; i < n; ++i) {
        const int col = i / columnHeight;
        const int within = i % columnHeight;
        // Odd columns run upward so consecutive cells stay adjacent.
        const int row =
            (col % 2 == 0) ? within : columnHeight - 1 - within;
        l.place(i, {col * pitch, row * pitch});
    }
    return l;
}

Layout
racetrackRingLayout(int n, Length pitch)
{
    VSYNC_ASSERT(n >= 3, "racetrack ring needs n >= 3, got %d", n);
    graph::Topology t = graph::ring(n);
    Layout l(csprintf("racetrack-%d", n), std::move(t.graph));
    const int half = (n + 1) / 2;
    for (int i = 0; i < n; ++i) {
        if (i < half)
            l.place(i, {i * pitch, 0.0});
        else
            l.place(i, {(2 * half - 1 - i) * pitch, pitch});
    }
    return l;
}

Layout
meshLayout(int rows, int cols, Length pitch)
{
    graph::Topology t = graph::mesh(rows, cols);
    Layout l(t.name, std::move(t.graph));
    for (std::size_t i = 0; i < t.coords.size(); ++i) {
        l.place(static_cast<CellId>(i),
                {t.coords[i][0] * pitch, t.coords[i][1] * pitch});
    }
    return l;
}

Layout
hexLayout(int rows, int cols, Length pitch)
{
    graph::Topology t = graph::hexArray(rows, cols);
    Layout l(t.name, std::move(t.graph));
    for (std::size_t i = 0; i < t.coords.size(); ++i) {
        const double c = t.coords[i][0];
        const double r = t.coords[i][1];
        l.place(static_cast<CellId>(i),
                {(c + 0.5 * r) * pitch, r * pitch});
    }
    return l;
}

Layout
layeredTreeLayout(int levels, Length pitch)
{
    graph::Topology t = graph::completeBinaryTree(levels);
    Layout l(t.name, std::move(t.graph));
    for (std::size_t i = 0; i < t.coords.size(); ++i) {
        l.place(static_cast<CellId>(i),
                {t.coords[i][0] * pitch, t.coords[i][1] * pitch});
    }
    return l;
}

Layout
fromTopology(const graph::Topology &t, Length pitch)
{
    // Place every topology by its logical coordinates so the layout's
    // graph is exactly t.graph (including ring/torus wrap links, whose
    // edges then have their true physical length).
    Layout l(t.name, t.graph);
    const bool hex = t.kind == graph::TopologyKind::Hex;
    for (std::size_t i = 0; i < t.coords.size(); ++i) {
        const double c = t.coords[i][0];
        const double r = t.coords[i][1];
        const double x = hex ? (c + 0.5 * r) : c;
        l.place(static_cast<CellId>(i), {x * pitch, r * pitch});
    }
    return l;
}

} // namespace vsync::layout
