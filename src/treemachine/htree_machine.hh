/**
 * @file
 * Section VIII: tree machines under the summation model.
 *
 * When COMM is a complete binary tree laid out as an H-tree, edge
 * lengths shrink geometrically with depth: the layout uses O(N) area
 * and a root-to-leaf path has length O(sqrt N). Distributing clock
 * events along the data paths makes clock skew track communication
 * delay, and inserting the same number of pipeline registers on every
 * edge of a level (enough to bound each segment) yields a constant
 * pipeline interval with O(sqrt N) through-tree latency and only a
 * constant-factor area increase (registers just thicken wires).
 */

#ifndef VSYNC_TREEMACHINE_HTREE_MACHINE_HH
#define VSYNC_TREEMACHINE_HTREE_MACHINE_HH

#include <vector>

#include "clocktree/clock_tree.hh"
#include "layout/layout.hh"

namespace vsync::treemachine
{

/** An H-tree-placed complete binary tree machine. */
struct TreeMachineLayout
{
    /** The placed binary tree (cell 0 = root, heap order). */
    layout::Layout layout;
    /** Tree levels (nodes = 2^levels - 1). */
    int levels = 0;
    /**
     * Physical length of the parent-child edges entering each level
     * (index 1..levels-1; index 0 unused).
     */
    std::vector<Length> edgeLengthAtLevel;
};

/** Build the H-tree layout of a @p levels-level binary tree machine. */
TreeMachineLayout buildHTreeMachine(int levels);

/**
 * A clock tree that follows the data paths: the clock enters at the
 * root cell and propagates down the same H-tree edges the data uses.
 * Under the summation model the skew between a parent and child is
 * then bounded by g(edge length) -- it scales with the communication
 * delay, never with N (the Section VIII observation).
 */
clocktree::ClockTree buildClockAlongDataPaths(const TreeMachineLayout &tm);

/** Accounting of pipeline-register insertion on the tree's edges. */
struct PipelinedTreeStats
{
    /** Registers inserted per edge entering each level (same count for
     *  every edge of a level, preserving synchrony). */
    std::vector<int> registersPerLevel;
    /** Total registers inserted. */
    long totalRegisters = 0;
    /** Longest wire segment after insertion (bounded by maxWire). */
    Length maxSegment = 0.0;
    /** Layout area (bounding box). */
    double area = 0.0;
    /** Area including register overhead (unit area per register). */
    double areaWithRegisters = 0.0;
    /** Physical root-to-leaf path length. */
    Length rootToLeafLength = 0.0;
    /** Pipeline interval: time per stage (segment + register). */
    Time pipelineInterval = 0.0;
    /** Latency from root to leaf through all stages. */
    Time rootToLeafLatency = 0.0;
};

/**
 * Insert pipeline registers so no wire segment exceeds @p max_wire.
 *
 * @param m        signal delay per lambda (ns).
 * @param reg_delay register traversal delay (ns).
 */
PipelinedTreeStats insertPipelineRegisters(const TreeMachineLayout &tm,
                                           Length max_wire, double m,
                                           Time reg_delay);

} // namespace vsync::treemachine

#endif // VSYNC_TREEMACHINE_HTREE_MACHINE_HH
