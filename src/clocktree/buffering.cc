#include "clocktree/buffering.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vsync::clocktree
{

std::size_t
BufferedClockTree::bufferCount() const
{
    std::size_t n = 0;
    for (const BufferedSite &s : siteList)
        if (s.isBuffer)
            ++n;
    return n;
}

Length
BufferedClockTree::maxSegmentLength() const
{
    Length longest = 0.0;
    for (const BufferedSite &s : siteList)
        longest = std::max(longest, s.wireFromParent);
    return longest;
}

int
BufferedClockTree::maxBufferDepth() const
{
    std::vector<int> depth(siteList.size(), 0);
    int deepest = 0;
    for (std::size_t i = 1; i < siteList.size(); ++i) {
        const BufferedSite &s = siteList[i];
        depth[i] = depth[s.parent] + (s.isBuffer ? 1 : 0);
        deepest = std::max(deepest, depth[i]);
    }
    return deepest;
}

BufferedClockTree
BufferedClockTree::insertBuffers(const ClockTree &tree, Length spacing)
{
    VSYNC_ASSERT(spacing > 0.0, "buffer spacing must be positive, got %g",
                 spacing);
    BufferedClockTree b;
    b.spacingUsed = spacing;
    b.nodeSite.assign(tree.size(), invalidId);

    // Root site.
    b.siteList.push_back({invalidId, 0.0, tree.position(tree.root()),
                          false, tree.root()});
    b.nodeSite[tree.root()] = 0;

    // Original nodes were created parent-before-child, so a forward walk
    // always finds the parent's site already materialised.
    for (NodeId v = 1; static_cast<std::size_t>(v) < tree.size(); ++v) {
        const NodeId parent = tree.structure().parent(v);
        NodeId site = b.nodeSite[parent];
        VSYNC_ASSERT(site != invalidId, "parent site missing for %d", v);

        const Length total = tree.wireLength(v);
        const geom::Path route = tree.wire(v);
        Length placed = 0.0;
        // Buffers at spacing, 2*spacing, ... strictly inside the wire.
        while (total - placed > spacing) {
            placed += spacing;
            BufferedSite buf;
            buf.parent = site;
            buf.wireFromParent = spacing;
            // Padded wires are longer than their drawn route; clamp the
            // drawn position to the route end.
            buf.pos = route.pointAt(std::min(placed, route.length()));
            buf.isBuffer = true;
            b.siteList.push_back(buf);
            site = static_cast<NodeId>(b.siteList.size() - 1);
        }
        BufferedSite end;
        end.parent = site;
        end.wireFromParent = total - placed;
        end.pos = tree.position(v);
        end.isBuffer = false;
        end.treeNode = v;
        b.siteList.push_back(end);
        b.nodeSite[v] = static_cast<NodeId>(b.siteList.size() - 1);
    }
    return b;
}

} // namespace vsync::clocktree
