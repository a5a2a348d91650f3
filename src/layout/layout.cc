#include "layout/layout.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vsync::layout
{

Layout::Layout(std::string name, graph::Graph comm)
    : name(std::move(name)), graph(std::move(comm)),
      placements(graph.size()), placed(graph.size(), false),
      routes(graph.edgeCount())
{
}

void
Layout::place(CellId cell, const geom::Point &center)
{
    VSYNC_ASSERT(cell >= 0 &&
                 static_cast<std::size_t>(cell) < placements.size(),
                 "placing unknown cell %d", cell);
    placements[cell] = center;
    placed[cell] = true;
}

void
Layout::routeRemaining()
{
    for (std::size_t e = 0; e < routes.size(); ++e) {
        if (!routes[e].empty())
            continue;
        const graph::Edge &edge = graph.edge(static_cast<graph::EdgeId>(e));
        routes[e] = geom::lRoute(placements[edge.src],
                                 placements[edge.dst]);
    }
}

Length
Layout::maxEdgeLength() const
{
    Length longest = 0.0;
    for (const auto &r : routes)
        longest = std::max(longest, r.length());
    return longest;
}

Length
Layout::totalWireLength() const
{
    // Count each undirected connection once: keep the smaller edge id of
    // each (src, dst)/(dst, src) pair.
    Length total = 0.0;
    for (std::size_t e = 0; e < routes.size(); ++e) {
        const graph::Edge &edge = graph.edge(static_cast<graph::EdgeId>(e));
        bool counted_reverse = false;
        for (const graph::Adj &a : graph.outEdges(edge.dst)) {
            if (a.node == edge.src &&
                static_cast<std::size_t>(a.edge) < e) {
                counted_reverse = true;
                break;
            }
        }
        if (!counted_reverse)
            total += routes[e].length();
    }
    return total;
}

geom::Rect
Layout::boundingBox() const
{
    geom::Rect r = geom::Rect::boundingBox(placements.begin(),
                                           placements.end());
    // Cells occupy unit area centred on their placement (A2).
    r.x0 -= 0.5;
    r.y0 -= 0.5;
    r.x1 += 0.5;
    r.y1 += 0.5;
    return r;
}

bool
Layout::validate(bool die) const
{
    auto fail = [&](const std::string &msg) {
        if (die)
            fatal("layout '%s' invalid: %s", name.c_str(), msg.c_str());
        return false;
    };

    for (std::size_t c = 0; c < placements.size(); ++c)
        if (!placed[c])
            return fail(csprintf("cell %zu not placed", c));

    for (std::size_t e = 0; e < routes.size(); ++e) {
        const graph::Edge &edge = graph.edge(static_cast<graph::EdgeId>(e));
        const geom::Path &path = routes[e];
        if (path.empty())
            return fail(csprintf("edge %zu not routed", e));
        if (!(path.front() == placements[edge.src]) ||
            !(path.back() == placements[edge.dst])) {
            return fail(csprintf("edge %zu route endpoints mismatch", e));
        }
    }

    // Unit-area cells: centres at least one pitch apart. O(n^2) check is
    // acceptable for the array sizes validated in tests.
    if (placements.size() <= 4096) {
        for (std::size_t a = 0; a < placements.size(); ++a) {
            for (std::size_t b = a + 1; b < placements.size(); ++b) {
                if (geom::manhattan(placements[a], placements[b]) <
                    1.0 - 1e-9) {
                    return fail(csprintf(
                        "cells %zu and %zu overlap (A2 violated)", a, b));
                }
            }
        }
    }
    return true;
}

} // namespace vsync::layout
