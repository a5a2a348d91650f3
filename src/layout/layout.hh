/**
 * @file
 * Planar layouts of communication graphs (assumptions A1-A3).
 *
 * A Layout binds a COMM graph to physical cell placements and routed
 * communication wires. Cells occupy unit area (A2) on a lambda grid and
 * wires are rectilinear paths of unit width (A3). The clock-tree builders
 * and skew analysis consume Layouts.
 */

#ifndef VSYNC_LAYOUT_LAYOUT_HH
#define VSYNC_LAYOUT_LAYOUT_HH

#include <string>
#include <vector>

#include "geom/path.hh"
#include "geom/point.hh"
#include "geom/rect.hh"
#include "graph/graph.hh"

namespace vsync::layout
{

/** A placed and routed communication graph. */
class Layout
{
  public:
    Layout() = default;

    /**
     * @param name human-readable layout name.
     * @param comm the communication graph (copied).
     */
    Layout(std::string name, graph::Graph comm);

    /** Place cell @p cell at @p center. */
    void place(CellId cell, const geom::Point &center);

    /**
     * Route every still-unrouted edge with an L-shaped path between its
     * endpoint placements.
     */
    void routeRemaining();

    /** The communication graph. */
    const graph::Graph &comm() const { return graph; }

    /** Number of cells. */
    std::size_t size() const { return graph.size(); }

    /** Placement of cell @p cell. */
    const geom::Point &position(CellId cell) const
    {
        return placements.at(cell);
    }

    /** All placements, indexed by cell id. */
    const std::vector<geom::Point> &positions() const { return placements; }

    /** Route of directed edge @p e. */
    const geom::Path &edgeRoute(graph::EdgeId e) const
    {
        return routes.at(e);
    }

    /** Longest routed communication edge. */
    Length maxEdgeLength() const;

    /** Sum of all route lengths (each undirected pair counted once). */
    Length totalWireLength() const;

    /** Bounding box over cell placements (half-cell margin added). */
    geom::Rect boundingBox() const;

    /** Layout name. */
    const std::string &layoutName() const { return name; }

    /**
     * Check structural sanity: every cell placed, every edge routed with
     * endpoints at the cells' placements, and no two cells closer than
     * one cell pitch (unit area, A2). Calls fatal() on violation when
     * @p die, otherwise returns false.
     */
    bool validate(bool die = true) const;

  private:
    std::string name;
    graph::Graph graph;
    std::vector<geom::Point> placements;
    std::vector<bool> placed;
    std::vector<geom::Path> routes;
};

} // namespace vsync::layout

#endif // VSYNC_LAYOUT_LAYOUT_HH
