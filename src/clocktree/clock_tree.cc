#include "clocktree/clock_tree.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vsync::clocktree
{

NodeId
ClockTree::addRoot(const geom::Point &pos)
{
    VSYNC_ASSERT(positions.empty(), "clock tree already has a root");
    tree.addNode();
    positions.push_back(pos);
    wireLengths.push_back(0.0);
    cellOf.push_back(invalidId);
    invalidateCache();
    return 0;
}

NodeId
ClockTree::addChild(NodeId parent, const geom::Point &pos)
{
    VSYNC_ASSERT(!positions.empty(), "add the root first");
    const Length length = geom::manhattan(positions.at(parent), pos);
    const NodeId id = tree.addNode();
    tree.setParent(id, parent);
    positions.push_back(pos);
    wireLengths.push_back(length);
    cellOf.push_back(invalidId);
    invalidateCache();
    return id;
}

void
ClockTree::padWire(NodeId node, Length extra)
{
    VSYNC_ASSERT(node > 0 && static_cast<std::size_t>(node) < size(),
                 "cannot pad node %d", node);
    VSYNC_ASSERT(extra >= 0.0, "negative padding %g", extra);
    // The detour is accounted in the length only; the drawn route stays
    // the L-route (a serpentine of the same endpoints).
    wireLengths[node] += extra;
    invalidateCache();
}

void
ClockTree::bindCell(NodeId node, CellId cell)
{
    VSYNC_ASSERT(node >= 0 && static_cast<std::size_t>(node) < size(),
                 "binding unknown tree node %d", node);
    VSYNC_ASSERT(cell >= 0, "binding invalid cell %d", cell);
    VSYNC_ASSERT(cellOf[node] == invalidId,
                 "tree node %d already clocks cell %d", node, cellOf[node]);
    if (static_cast<std::size_t>(cell) >= nodeOf.size())
        nodeOf.resize(cell + 1, invalidId);
    VSYNC_ASSERT(nodeOf[cell] == invalidId,
                 "cell %d already clocked by node %d", cell, nodeOf[cell]);
    cellOf[node] = cell;
    nodeOf[cell] = node;
}

geom::Path
ClockTree::wire(NodeId v) const
{
    VSYNC_ASSERT(v > 0 && static_cast<std::size_t>(v) < size(),
                 "node %d has no wire", v);
    return geom::lRoute(positions[tree.parent(v)], positions[v]);
}

NodeId
ClockTree::root() const
{
    VSYNC_ASSERT(!positions.empty(), "empty clock tree has no root");
    return 0;
}

void
ClockTree::fillCache() const
{
    if (cacheValid)
        return;
    rootLenCache.assign(size(), 0.0);
    // Nodes are created parent-before-child, so a forward pass works.
    for (std::size_t v = 1; v < size(); ++v) {
        const NodeId p = tree.parent(static_cast<NodeId>(v));
        rootLenCache[v] = rootLenCache[p] + wireLengths[v];
    }
    cacheValid = true;
}

Length
ClockTree::rootPathLength(NodeId v) const
{
    fillCache();
    return rootLenCache.at(v);
}

NodeId
ClockTree::nodeOfCell(CellId cell) const
{
    if (cell < 0 || static_cast<std::size_t>(cell) >= nodeOf.size())
        return invalidId;
    return nodeOf[cell];
}

CellId
ClockTree::cellOfNode(NodeId v) const
{
    return cellOf.at(v);
}

std::size_t
ClockTree::boundCellCount() const
{
    std::size_t n = 0;
    for (CellId c : cellOf)
        if (c != invalidId)
            ++n;
    return n;
}

Length
ClockTree::pathDifference(NodeId a, NodeId b) const
{
    return std::fabs(rootPathLength(a) - rootPathLength(b));
}

Length
ClockTree::treeDistance(NodeId a, NodeId b) const
{
    // Ids are parent-before-child (addChild appends), so the larger id
    // is never an ancestor of the smaller: stepping it up walks exactly
    // the tree path a..b.
    NodeId anc = a, other = b;
    while (anc != other) {
        if (anc > other)
            anc = tree.parent(anc);
        else
            other = tree.parent(other);
    }
    return rootPathLength(a) + rootPathLength(b) -
           2.0 * rootPathLength(anc);
}

Length
ClockTree::maxRootPathLength() const
{
    fillCache();
    Length longest = 0.0;
    for (Length len : rootLenCache)
        longest = std::max(longest, len);
    return longest;
}

Length
ClockTree::totalWireLength() const
{
    Length total = 0.0;
    for (Length len : wireLengths)
        total += len;
    return total;
}

bool
ClockTree::validate(bool die) const
{
    auto fail = [&](const std::string &msg) {
        if (die)
            fatal("clock tree '%s' invalid: %s", name.c_str(), msg.c_str());
        return false;
    };
    if (positions.empty())
        return fail("empty tree");
    if (!tree.valid())
        return fail("broken tree structure");
    for (std::size_t v = 1; v < size(); ++v) {
        const NodeId p = tree.parent(static_cast<NodeId>(v));
        if (p == invalidId)
            return fail(csprintf("node %zu detached", v));
        if (wireLengths[v] + 1e-12 <
            geom::manhattan(positions[p], positions[v]))
            return fail(csprintf("wire %zu shorter than its route", v));
    }
    return true;
}

} // namespace vsync::clocktree
