/**
 * @file
 * The clock distribution tree CLK (assumption A4).
 *
 * A ClockTree is a rooted binary tree laid out in the plane. Every node
 * has a position; every non-root node has a wire from its parent, the
 * L-route between the two positions (geom::lRoute), which is derived on
 * demand rather than stored; only its length is kept, and it exceeds
 * the route's when the wire is padded (padWire). Some nodes coincide
 * with cells of a communication graph ("a cell can be clocked if it is
 * also a node of CLK"). The quantities the skew models consume are
 * purely geometric:
 *
 *  - h(v)    = physical length of the root-to-v path on CLK,
 *  - d(a, b) = |h(a) - h(b)|          (difference model, A9),
 *  - s(a, b) = h(a) + h(b) - 2 h(nca) (summation model, A10/A11),
 *  - P       = max over leaves of h   (equipotential period, A6).
 */

#ifndef VSYNC_CLOCKTREE_CLOCK_TREE_HH
#define VSYNC_CLOCKTREE_CLOCK_TREE_HH

#include <string>
#include <vector>

#include "geom/path.hh"
#include "geom/point.hh"
#include "graph/tree.hh"

namespace vsync::clocktree
{

/** A planar rooted binary clock tree. */
class ClockTree
{
  public:
    ClockTree() = default;

    /** Create the root at @p pos; must be the first node created. */
    NodeId addRoot(const geom::Point &pos);

    /**
     * Add a node under @p parent connected by an L-route; the wire's
     * length is the Manhattan distance between the two positions.
     *
     * @return the new node's id.
     */
    NodeId addChild(NodeId parent, const geom::Point &pos);

    /**
     * Lengthen the wire feeding @p node by @p extra without moving it
     * (a serpentine detour). Used to equalise root-to-leaf lengths
     * (Lemma 1).
     */
    void padWire(NodeId node, Length extra);

    /** Declare that tree node @p node clocks cell @p cell. */
    void bindCell(NodeId node, CellId cell);

    /** Number of tree nodes. */
    std::size_t size() const { return positions.size(); }

    /** The root node id. @pre addRoot was called. */
    NodeId root() const;

    /** Tree structure (parents/children/nca). */
    const graph::RootedTree &structure() const { return tree; }

    /** Position of node @p v. */
    const geom::Point &position(NodeId v) const
    {
        return positions.at(v);
    }

    /**
     * Route of the wire from parent(v) to v: the L-route between their
     * positions, built on each call. @pre v is not the root.
     */
    geom::Path wire(NodeId v) const;

    /** Physical length of the wire from parent(v) to v (0 for root). */
    Length wireLength(NodeId v) const { return wireLengths.at(v); }

    /** Physical length h(v) of the root-to-v path. */
    Length rootPathLength(NodeId v) const;

    /** Tree node clocking cell @p cell (invalidId when unbound). */
    NodeId nodeOfCell(CellId cell) const;

    /** Cell clocked by node @p v (invalidId for internal nodes). */
    CellId cellOfNode(NodeId v) const;

    /** Number of cells bound to tree nodes. */
    std::size_t boundCellCount() const;

    /** d(a, b): |h(a) - h(b)| (the difference model's argument). */
    Length pathDifference(NodeId a, NodeId b) const;

    /**
     * s(a, b): length of the tree path a..b (the summation model's
     * argument). Finds the nca by an id-order climb (ids are
     * parent-before-child), the same node graph::RootedTree::nca finds.
     */
    Length treeDistance(NodeId a, NodeId b) const;

    /** Longest root-to-node physical path P (A6's clock-tree depth). */
    Length maxRootPathLength() const;

    /** Total wire length of the tree. */
    Length totalWireLength() const;

    /**
     * Structural checks: single root, every node attached, and no wire
     * shorter than the L-route between its endpoints. fatal()s when
     * @p die, else returns false on violation.
     */
    bool validate(bool die = true) const;

    /**
     * Fill the lazy root-path-length cache now. The geometric queries
     * (rootPathLength, pathDifference, treeDistance, maxRootPathLength)
     * populate it on first use through a mutable member, which races if
     * the first callers are concurrent; warm it from one thread before
     * sharing a tree read-only across Monte-Carlo workers.
     */
    void warmCaches() const { fillCache(); }

    /** Optional builder-assigned name. */
    std::string name;

  private:
    graph::RootedTree tree;
    std::vector<geom::Point> positions;
    std::vector<Length> wireLengths;
    std::vector<CellId> cellOf;
    std::vector<NodeId> nodeOf; // indexed by cell id (grown on demand)
    mutable std::vector<Length> rootLenCache;
    mutable bool cacheValid = false;

    void invalidateCache() { cacheValid = false; }
    void fillCache() const;
};

} // namespace vsync::clocktree

#endif // VSYNC_CLOCKTREE_CLOCK_TREE_HH
