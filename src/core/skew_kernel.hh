/**
 * @file
 * The flattened batch skew-query kernel.
 *
 * Every headline result of the paper reduces to evaluating
 * d = |h(a) - h(b)| and s = h(a) + h(b) - 2 h(nca(a, b)) over all
 * communicating pairs (A9-A11, Theorem 6), and the Monte-Carlo and
 * fault sweeps re-run that query space millions of times per bench.
 * A SkewKernel "compiles" one scenario -- a (Layout, ClockTree) pair,
 * or a bare Layout for arrival-surface-only queries -- into flat
 * structure-of-arrays form once, so every subsequent query is a scan
 * over contiguous memory:
 *
 *  - per-node parent index and wire length, in topological id order
 *    (ClockTree creates nodes parent-before-child; the build verifies
 *    parent(v) < v so a forward pass IS a topological traversal),
 *  - per-node root-path length h as a prefix array; nca() climbs the
 *    parent array by id order, so no other structure is kept for it,
 *  - the communicating pairs as four flat endpoint arrays (tree-node
 *    ids and cell ids), in layout::Layout::comm() undirectedEdges()
 *    order -- the order every pre-kernel surface used, so results are
 *    bit-identical to the pointer-chasing paths they replace. Its cell
 *    pairs are canonical (a < b) and sorted by (a, b), so the cell
 *    fold's gathers already walk the arrival surface near-monotonically,
 *  - the range entry point's frontier schedule: which compact scratch
 *    row each propagation step writes, and which row pairs each chunk
 *    of steps folds.
 *
 * The batch entry points are allocation-free: arrivals() propagates a
 * sampled per-wire delay realisation down the tree into a caller-owned
 * span, maxCommSkew() folds a node-arrival surface over the pairs, and
 * arrivalSkew() evaluates a per-cell arrival surface (the fault
 * subsystem's shared reduction). Each has a lane-blocked sibling
 * (arrivalsBlock / maxCommSkewBlock / arrivalSkewBlock) that carries W
 * independent Monte-Carlo trial lanes through one pass over the flat
 * arrays -- node-outer, lane-inner over a lane-major scratch whose row
 * stride laneStride(W) is padded to an odd count so power-of-two widths
 * cannot alias cache sets. The lanes' draws come from Rng::propagateUniformLanes, the lane-interleaved
 * xoshiro kernel fused with the propagation, and each lane replays the
 * scalar draw sequence exactly, so blocked results are BIT-IDENTICAL
 * to the scalar path at every width and on every ISA.
 * sampleMaxCommSkewRange() is the one trial loop: every Monte-Carlo
 * skew sweep, local or served, runs its trials through it, a fixed
 * blockWidth() = 8 lanes at a time. It folds each pair as soon as the
 * chunk of steps writing its later endpoint has run, so its scratch
 * holds only the frontier between written and unwritten nodes -- the
 * bisection-sized cut of the paper's Lemma 4 -- not a row per cell.
 * A kernel is immutable after construction and safe to share read-only
 * across threads; the query counters are relaxed atomics.
 */

#ifndef VSYNC_CORE_SKEW_KERNEL_HH
#define VSYNC_CORE_SKEW_KERNEL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "clocktree/clock_tree.hh"
#include "common/rng.hh"
#include "core/wire_delay.hh"
#include "layout/layout.hh"

namespace vsync::obs
{
class MetricsRegistry;
} // namespace vsync::obs

namespace vsync::core
{

/**
 * Realised skew metrics of one concrete per-cell arrival vector, as
 * produced by a faulty clock-distribution run (fault::TrixGrid::
 * cellArrivals or the fault::simulateTreeUnderFaults driver). An
 * infinite arrival means the cell was never clocked; pairs with an
 * unclocked endpoint are excluded from the skew maximum and counted
 * out of clockedPairs instead.
 */
struct ArrivalSkew
{
    /** Fraction of cells with a finite arrival. */
    double clockedFraction = 0.0;
    /** Max |arrival(a) - arrival(b)| over fully clocked comm pairs. */
    Time maxCommSkew = 0.0;
    /** Communicating pairs with both endpoints clocked. */
    std::size_t clockedPairs = 0;
    /** All communicating pairs of the layout. */
    std::size_t pairCount = 0;
};

/** One compiled scenario: flat skew-query state for (layout[, tree]). */
class SkewKernel
{
  public:
    /**
     * Pairs-only compile: flatten @p l's communicating pairs for
     * arrivalSkew() queries. Tree queries (nca, arrivals, ...) are
     * unavailable; this is the form the TRIX-grid fault driver uses,
     * where cells are clocked by a redundant grid rather than a tree.
     */
    explicit SkewKernel(const layout::Layout &l);

    /**
     * Full compile of a (layout, clock tree) scenario.
     *
     * @pre every cell of the layout is bound to a node of the tree
     *      (A4); checked once here so the per-trial hot paths never
     *      re-assert it.
     */
    SkewKernel(const layout::Layout &l, const clocktree::ClockTree &t);

    /** True when compiled with a tree (tree queries available). */
    bool hasTree() const { return !parentOf.empty(); }

    /** Tree nodes (0 for a pairs-only kernel). */
    std::size_t nodeCount() const { return parentOf.size(); }

    /** Cells of the compiled layout. */
    std::size_t cellCount() const { return cells; }

    /** Communicating pairs. */
    std::size_t pairCount() const { return pairCellA.size(); }

    /** Parent of tree node @p v (invalidId for the root). */
    NodeId parent(NodeId v) const { return parentOf[v]; }

    /** Tree node clocking cell @p c. */
    NodeId nodeOfCell(CellId c) const { return nodeOf[c]; }

    /** Wire length feeding node @p v (0 for the root). */
    Length wireLength(NodeId v) const { return wireLen[v]; }

    /** Root-path length h(v) (prefix array, filled at build). */
    Length rootPathLength(NodeId v) const { return h[v]; }

    /**
     * Nearest common ancestor by an id-order climb: ids are
     * topological (parent(v) < v), so stepping the larger of the two
     * ids to its parent until they meet walks exactly the tree path
     * between a and b. Costs that path's length in edges, with no
     * arrays beyond the parent ids. Agrees with graph::RootedTree::nca
     * on every pair (property-tested on randomized trees and on every
     * comm pair of spine and H-tree meshes).
     */
    NodeId nca(NodeId a, NodeId b) const;

    /** d(a, b) = |h(a) - h(b)| (difference model, A9). */
    Length pathDifference(NodeId a, NodeId b) const;

    /** s(a, b) = h(a) + h(b) - 2 h(nca) (summation model, A10/A11). */
    Length treeDistance(NodeId a, NodeId b) const;

    /** Tree-node endpoints of pair i: (pairNodesA()[i], pairNodesB()[i]),
     *  in layout comm() undirectedEdges() order. */
    const std::vector<NodeId> &pairNodesA() const { return pairNodeA; }
    const std::vector<NodeId> &pairNodesB() const { return pairNodeB; }

    /** Cell endpoints of pair i, same order. */
    const std::vector<CellId> &pairCellsA() const { return pairCellA; }
    const std::vector<CellId> &pairCellsB() const { return pairCellB; }

    /**
     * Propagate one sampled chip down the tree: node @p v's arrival is
     * arrival(parent) + u_v * wireLength(v) with u_v drawn uniformly
     * from [delay.lo(), delay.hi()], one draw per non-root node in id
     * order -- the exact draw sequence of the pre-kernel
     * sampleSkewInstance, so substream-driven results are bit-identical.
     *
     * @param out caller-owned span of nodeCount() entries; every entry
     *            is written (no allocation, vectorizable inner loop).
     */
    void arrivals(const WireDelay &delay, Rng &rng,
                  std::span<Time> out) const;

    /** Max |arrival(a) - arrival(b)| over the comm pairs of a node
     *  arrival surface (as filled by arrivals()). */
    Time maxCommSkew(std::span<const Time> node_arrival) const;

    /**
     * arrivals() + maxCommSkew() in one call: the Monte-Carlo
     * per-trial hot path. @p scratch is resized to nodeCount() once
     * and reusable across calls on the same thread.
     */
    Time sampleMaxCommSkew(const WireDelay &delay, Rng &rng,
                           std::vector<Time> &scratch) const;

    /**
     * Evaluate a per-cell arrival surface (infinity = never clocked)
     * over the comm pairs: the reduction shared by the faulty-tree and
     * TRIX-grid drivers. Works on pairs-only kernels.
     */
    ArrivalSkew arrivalSkew(std::span<const Time> cell_arrival) const;

    /** Hard cap on trial lanes per blocked call. */
    static constexpr std::size_t maxLanes = 32;

    /**
     * Row stride (in Time slots) of a lane-major matrix carrying
     * @p width lanes: width padded up to the next odd count when even.
     * Power-of-two widths make every lane's column stride a multiple
     * of the cache-set period, so all W working columns fight over the
     * same L1 sets -- the conflict-miss regression that sank the first
     * blocking attempt at width 8. An odd stride walks the columns
     * across all sets. laneStride(1) == 1, so a plain contiguous
     * surface IS a valid width-1 lane-major matrix.
     */
    static constexpr std::size_t
    laneStride(std::size_t width)
    {
        return (width % 2 == 0 && width > 0) ? width + 1 : width;
    }

    /**
     * Blocked arrivals(): propagate lanes.size() independent trials in
     * one node-outer, lane-inner pass. Lane j advances lanes[j] through
     * the exact scalar draw sequence (Rng::propagateUniformLanes over
     * node chunks), so row v of @p out holds, for every lane j,
     * bitwise the value arrivals() would produce for that lane's Rng.
     *
     * @param out lane-major, nodeCount() * laneStride(lanes.size())
     *            slots; node v's lane-j arrival is
     *            out[v * laneStride(W) + j]. Padding slots are never
     *            read back.
     */
    void arrivalsBlock(const WireDelay &delay, std::span<Rng> lanes,
                       std::span<Time> out) const;

    /** Blocked maxCommSkew(): fold a lane-major node-arrival matrix
     *  (as filled by arrivalsBlock()) into out[j] = lane j's max comm
     *  skew; out.size() selects the width. Bitwise equal to scalar
     *  maxCommSkew() per lane. */
    void maxCommSkewBlock(std::span<const Time> lane_arrival,
                          std::span<Time> out) const;

    /**
     * The Monte-Carlo range entry point: trials [first_trial,
     * first_trial + out.size()) of the scenario, trial i sampled on
     * Rng::forTrial(seed, i), blockWidth() lanes at a time with a
     * narrower remainder block; out[k] receives trial first_trial + k's
     * max comm skew. A block runs the propagation in chunks of
     * foldChunkNodes nodes, one fused Rng::propagateUniformLanes pass
     * on @p isa each, and after each chunk folds the pairs whose later
     * endpoint that chunk wrote, keeping the running maxima across
     * chunks. Its scratch is compactRows() rows of blockWidth() lanes.
     * Every ISA and block split is bit-identical to the scalar
     * sampleMaxCommSkew(), so results do not depend on how a sweep
     * splits its trials into ranges or on the host. @p scratch is
     * reusable across calls on the same thread, and across kernels.
     * Returns the RNG draws consumed.
     */
    std::uint64_t sampleMaxCommSkewRange(const WireDelay &delay,
                                         std::uint64_t seed,
                                         std::uint64_t first_trial,
                                         std::span<Time> out,
                                         std::vector<Time> &scratch,
                                         RngIsa isa = rngIsaBest()) const;

    /**
     * Blocked arrivalSkew(): evaluate a lane-major per-cell arrival
     * matrix (cellCount() * laneStride(out.size()) slots, infinity =
     * never clocked) into out[j] = lane j's ArrivalSkew. Works on
     * pairs-only kernels. Branch-free: lanes go in groups of 8, two
     * ymm per row on the SIMD ISAs, and a pair's |ta - tb| is masked
     * to +0 in lanes where either endpoint is unclocked; short rows
     * (width 1, a partial last group) and the Scalar ISA fold each
     * lane alone. Every ISA and width gives the same bits.
     * @pre @p isa supported.
     */
    void arrivalSkewBlock(std::span<const Time> lane_cell_arrival,
                          std::span<ArrivalSkew> out,
                          RngIsa isa = rngIsaBest()) const;

    /**
     * The lane width the range entry points drive their blocks at: a
     * fixed 8, one AVX-512 vector of doubles (two on AVX2) and one
     * 64-byte cache line per compact scratch row. Every width is
     * bit-identical, so the width affects speed only, never results.
     */
    static constexpr std::size_t blockWidth() { return 8; }

    /**
     * Nodes per chunk of sampleMaxCommSkewRange()'s propagation, and so
     * per pair fold. 256 to 4,096 ran within noise of each other at
     * 32x32 and 256x256; 1,024 keeps 725 rows (46 KB) live at 256x256.
     */
    static constexpr std::size_t foldChunkNodes = 1024;

    /**
     * Rows of sampleMaxCommSkewRange()'s compact lane scratch: the
     * peak number of node rows its frontier schedule keeps live (725
     * at 256x256 on the H-tree builds, against 196,607 nodes). 0 for a
     * pairs-only kernel.
     */
    std::size_t compactRows() const { return slotRows; }

    /** Wall-clock milliseconds the compile took. */
    double buildMillis() const { return buildMs; }

    /** Pair-level queries served so far (batch calls count every pair
     *  they fold; per-pair calls count one each). Relaxed counter --
     *  exact under any thread schedule. */
    std::uint64_t queriesServed() const
    {
        return served.load(std::memory_order_relaxed);
    }

    /** arrivals() propagations served so far. */
    std::uint64_t arrivalBatches() const
    {
        return batches.load(std::memory_order_relaxed);
    }

    /**
     * Export kernel stats as gauges under @p prefix: nodes, pairs,
     * compact_rows, build_ms, queries_served, arrival_batches.
     * build_ms is wall clock and therefore not bit-stable across runs;
     * tests asserting registry bit-identity should compare the other
     * gauges.
     */
    void exportMetrics(obs::MetricsRegistry &reg,
                       const std::string &prefix = "core.skew_kernel.")
        const;

  private:
    void compilePairs(const layout::Layout &l,
                      const clocktree::ClockTree *t);
    void compileTree(const clocktree::ClockTree &t);
    void compileSchedule();

    std::size_t cells = 0;

    // Tree part (empty for pairs-only kernels), indexed by NodeId.
    std::vector<NodeId> parentOf;
    std::vector<Length> wireLen;
    std::vector<Length> h;       // root-path length prefix array
    std::vector<NodeId> nodeOf;  // indexed by CellId

    // Comm-pair endpoints, undirectedEdges() order -- the public,
    // order-contracted view (SkewReport edges, SkewInstance::edgeSkew).
    // The cell pairs are canonical (a < b) and sorted by (a, b).
    std::vector<NodeId> pairNodeA, pairNodeB;
    std::vector<CellId> pairCellA, pairCellB;

    // Frontier schedule (tree kernels): step v - 1 of the range entry
    // point's propagation writes node v into row slotTo[v - 1] from
    // row slotFrom[v - 1]; after chunk c's steps it folds the row pairs
    // [chunkPairEnd[c - 1], chunkPairEnd[c]) of pairSlotA/B. The
    // root's row is row 0, never released.
    std::vector<std::int32_t> slotFrom, slotTo;
    std::vector<std::int32_t> pairSlotA, pairSlotB;
    std::vector<std::uint32_t> chunkPairEnd;
    std::size_t slotRows = 0;

    double buildMs = 0.0;
    mutable std::atomic<std::uint64_t> served{0};
    mutable std::atomic<std::uint64_t> batches{0};
};

/**
 * Source of compiled kernels for a scenario: tree == nullptr asks for
 * the pairs-only compile of the layout. The Monte-Carlo and fault
 * sweeps fetch their kernels through a provider so callers can swap
 * the direct compile for serve::ScenarioCache::provider() -- repeated
 * sweeps over the same scenario then pay the compile once.
 */
using KernelProvider = std::function<std::shared_ptr<const SkewKernel>(
    const layout::Layout &, const clocktree::ClockTree *)>;

/** The uncached provider: one fresh compile per call. */
KernelProvider directCompile();

} // namespace vsync::core

#endif // VSYNC_CORE_SKEW_KERNEL_HH
