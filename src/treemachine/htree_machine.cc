#include "treemachine/htree_machine.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "graph/topology.hh"

namespace vsync::treemachine
{

namespace
{

/**
 * Offset magnitude of the edges entering level l of an L-level H-tree:
 * deepest edges have length 1 and lengths double every two levels
 * upward.
 */
Length
levelOffset(int levels, int l)
{
    return std::pow(2.0, (levels - 1 - l) / 2);
}

/** Edges entering odd levels run horizontally, even levels vertically. */
bool
horizontalLevel(int l)
{
    return (l % 2) == 1;
}

} // namespace

TreeMachineLayout
buildHTreeMachine(int levels)
{
    VSYNC_ASSERT(levels >= 1 && levels <= 24, "bad tree levels %d",
                 levels);
    graph::Topology topo = graph::completeBinaryTree(levels);
    TreeMachineLayout tm;
    tm.levels = levels;
    tm.layout = layout::Layout(csprintf("htree-machine-%d", levels),
                               std::move(topo.graph));
    tm.edgeLengthAtLevel.assign(static_cast<std::size_t>(levels), 0.0);
    for (int l = 1; l < levels; ++l)
        tm.edgeLengthAtLevel[static_cast<std::size_t>(l)] =
            levelOffset(levels, l);

    const int n = (1 << levels) - 1;
    std::vector<geom::Point> pos(static_cast<std::size_t>(n));
    pos[0] = {0.0, 0.0};
    for (int v = 1; v < n; ++v) {
        int depth = 0;
        for (int u = v; u > 0; u = (u - 1) / 2)
            ++depth;
        const int parent = (v - 1) / 2;
        const Length off = levelOffset(levels, depth);
        const double sign = (v % 2 == 1) ? -1.0 : 1.0; // left child -
        geom::Point p = pos[static_cast<std::size_t>(parent)];
        if (horizontalLevel(depth))
            p.x += sign * off;
        else
            p.y += sign * off;
        pos[static_cast<std::size_t>(v)] = p;
    }
    for (int v = 0; v < n; ++v)
        tm.layout.place(v, pos[static_cast<std::size_t>(v)]);
    return tm;
}

clocktree::ClockTree
buildClockAlongDataPaths(const TreeMachineLayout &tm)
{
    clocktree::ClockTree t;
    t.name = "clock-along-data/" + tm.layout.layoutName();
    const int n = static_cast<int>(tm.layout.size());
    // Tree node ids mirror cell ids (heap order): parents come first,
    // satisfying ClockTree's parent-before-child construction order.
    const NodeId root = t.addRoot(tm.layout.position(0));
    t.bindCell(root, 0);
    for (int v = 1; v < n; ++v) {
        const int parent = (v - 1) / 2;
        const NodeId node =
            t.addChild(static_cast<NodeId>(parent),
                       tm.layout.position(static_cast<CellId>(v)));
        t.bindCell(node, static_cast<CellId>(v));
    }
    return t;
}

PipelinedTreeStats
insertPipelineRegisters(const TreeMachineLayout &tm, Length max_wire,
                        double m, Time reg_delay)
{
    VSYNC_ASSERT(max_wire > 0.0, "max wire must be positive");
    VSYNC_ASSERT(m > 0.0 && reg_delay >= 0.0, "bad timing parameters");

    PipelinedTreeStats stats;
    stats.registersPerLevel.assign(
        static_cast<std::size_t>(tm.levels), 0);

    Length root_len = 0.0;
    Time latency = 0.0;
    long regs_on_path = 0;
    for (int l = 1; l < tm.levels; ++l) {
        const Length len =
            tm.edgeLengthAtLevel[static_cast<std::size_t>(l)];
        const int regs = std::max(
            0, static_cast<int>(std::ceil(len / max_wire)) - 1);
        stats.registersPerLevel[static_cast<std::size_t>(l)] = regs;
        // Edges entering level l: 2^l of them.
        stats.totalRegisters += static_cast<long>(regs) * (1L << l);
        const Length segment = len / (regs + 1);
        stats.maxSegment = std::max(stats.maxSegment, segment);
        root_len += len;
        latency += m * len + static_cast<Time>(regs) * reg_delay;
        regs_on_path += regs;
    }
    stats.rootToLeafLength = root_len;
    stats.rootToLeafLatency = latency;
    stats.pipelineInterval = m * stats.maxSegment + reg_delay;
    stats.area = tm.layout.boundingBox().area();
    stats.areaWithRegisters =
        stats.area + static_cast<double>(stats.totalRegisters);
    return stats;
}

} // namespace vsync::treemachine
