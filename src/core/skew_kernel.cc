#include "core/skew_kernel.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"

namespace vsync::core
{

SkewKernel::SkewKernel(const layout::Layout &l)
{
    const auto t0 = std::chrono::steady_clock::now();
    compilePairs(l, nullptr);
    buildMs = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
}

SkewKernel::SkewKernel(const layout::Layout &l,
                       const clocktree::ClockTree &t)
{
    const auto t0 = std::chrono::steady_clock::now();
    compileTree(t);
    compilePairs(l, &t);
    buildMs = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
}

void
SkewKernel::compilePairs(const layout::Layout &l,
                         const clocktree::ClockTree *t)
{
    cells = l.size();
    const auto edges = l.comm().undirectedEdges();
    pairCellA.reserve(edges.size());
    pairCellB.reserve(edges.size());
    if (t) {
        nodeOf.assign(cells, invalidId);
        for (CellId c = 0; static_cast<std::size_t>(c) < cells; ++c)
            nodeOf[c] = t->nodeOfCell(c);
        pairNodeA.reserve(edges.size());
        pairNodeB.reserve(edges.size());
    }
    for (const graph::Edge &pair : edges) {
        pairCellA.push_back(pair.src);
        pairCellB.push_back(pair.dst);
        if (t) {
            const NodeId na = nodeOf[pair.src];
            const NodeId nb = nodeOf[pair.dst];
            VSYNC_ASSERT(na != invalidId && nb != invalidId,
                         "cells %d/%d not clocked by the tree (A4)",
                         pair.src, pair.dst);
            pairNodeA.push_back(na);
            pairNodeB.push_back(nb);
        }
    }

    // Fold-only sorted copies. The public arrays above keep
    // undirectedEdges() order (SkewReport/SkewInstance depend on it);
    // the folds are max/count reductions, exact under any order, so
    // they get endpoint-sorted copies whose gathers walk the arrival
    // surface near-monotonically instead of in layout order.
    const std::size_t npairs = pairCellA.size();
    std::vector<std::pair<CellId, CellId>> cellPairs(npairs);
    for (std::size_t i = 0; i < npairs; ++i) {
        cellPairs[i] = {std::min(pairCellA[i], pairCellB[i]),
                        std::max(pairCellA[i], pairCellB[i])};
    }
    std::sort(cellPairs.begin(), cellPairs.end());
    foldCellA.resize(npairs);
    foldCellB.resize(npairs);
    for (std::size_t i = 0; i < npairs; ++i) {
        foldCellA[i] = cellPairs[i].first;
        foldCellB[i] = cellPairs[i].second;
    }
    if (t) {
        std::vector<std::pair<NodeId, NodeId>> nodePairs(npairs);
        for (std::size_t i = 0; i < npairs; ++i) {
            nodePairs[i] = {std::min(pairNodeA[i], pairNodeB[i]),
                            std::max(pairNodeA[i], pairNodeB[i])};
        }
        std::sort(nodePairs.begin(), nodePairs.end());
        foldNodeA.resize(npairs);
        foldNodeB.resize(npairs);
        for (std::size_t i = 0; i < npairs; ++i) {
            foldNodeA[i] = nodePairs[i].first;
            foldNodeB[i] = nodePairs[i].second;
        }
    }
}

void
SkewKernel::compileTree(const clocktree::ClockTree &t)
{
    const std::size_t n = t.size();
    VSYNC_ASSERT(n > 0, "cannot compile an empty clock tree");
    const graph::RootedTree &structure = t.structure();

    // Flatten parent/wire-length and verify the id order is
    // topological (ClockTree::addChild guarantees parent-before-child,
    // so ids double as the propagation order).
    parentOf.resize(n);
    wireLen.resize(n);
    h.resize(n);
    parentOf[0] = invalidId;
    wireLen[0] = 0.0;
    h[0] = 0.0;
    for (NodeId v = 1; static_cast<std::size_t>(v) < n; ++v) {
        const NodeId p = structure.parent(v);
        VSYNC_ASSERT(p != invalidId && p < v,
                     "node %d's parent %d breaks topological id order",
                     v, p);
        parentOf[v] = p;
        wireLen[v] = t.wireLength(v);
        h[v] = h[p] + wireLen[v];
    }

    // Euler tour: every node is recorded on entry and again after each
    // child subtree returns, giving 2n - 1 tour positions; nca(a, b) is
    // the minimum-depth position between the first occurrences of a
    // and b.
    std::vector<std::int32_t> depth(n, 0);
    for (NodeId v = 1; static_cast<std::size_t>(v) < n; ++v)
        depth[v] = depth[parentOf[v]] + 1;

    eulerNode.reserve(2 * n - 1);
    eulerDepth.reserve(2 * n - 1);
    firstSeen.assign(n, -1);
    struct Frame
    {
        NodeId node;
        std::size_t nextChild;
    };
    std::vector<Frame> stack;
    stack.push_back({0, 0});
    while (!stack.empty()) {
        Frame &f = stack.back();
        const auto &kids = structure.children(f.node);
        // Each frame visit records once: on entry, then once more
        // after every child subtree returns -- 2n - 1 records total.
        eulerNode.push_back(f.node);
        eulerDepth.push_back(depth[f.node]);
        if (firstSeen[f.node] < 0) {
            firstSeen[f.node] =
                static_cast<std::int32_t>(eulerNode.size() - 1);
        }
        if (f.nextChild < kids.size()) {
            const NodeId child = kids[f.nextChild];
            ++f.nextChild;
            stack.push_back({child, 0});
        } else {
            stack.pop_back();
        }
    }

    // Sparse table over tour depths: sparse[k][i] is the tour position
    // of the minimum depth in [i, i + 2^k).
    const std::size_t m = eulerNode.size();
    logTable.assign(m + 1, 0);
    for (std::size_t i = 2; i <= m; ++i)
        logTable[i] = logTable[i / 2] + 1;
    const int levels = logTable[m] + 1;
    sparse.assign(levels, {});
    sparse[0].resize(m);
    for (std::size_t i = 0; i < m; ++i)
        sparse[0][i] = static_cast<std::int32_t>(i);
    for (int k = 1; k < levels; ++k) {
        const std::size_t half = std::size_t{1} << (k - 1);
        const std::size_t len = std::size_t{1} << k;
        sparse[k].resize(m + 1 - len);
        for (std::size_t i = 0; i + len <= m; ++i) {
            const std::int32_t left = sparse[k - 1][i];
            const std::int32_t right = sparse[k - 1][i + half];
            sparse[k][i] =
                eulerDepth[left] <= eulerDepth[right] ? left : right;
        }
    }
}

NodeId
SkewKernel::nca(NodeId a, NodeId b) const
{
    VSYNC_ASSERT(hasTree(), "nca() needs a tree-compiled kernel");
    VSYNC_ASSERT(a >= 0 && static_cast<std::size_t>(a) < nodeCount() &&
                     b >= 0 &&
                     static_cast<std::size_t>(b) < nodeCount(),
                 "nca of invalid nodes %d/%d", a, b);
    served.fetch_add(1, std::memory_order_relaxed);
    std::int32_t lo = firstSeen[a];
    std::int32_t hi = firstSeen[b];
    if (lo > hi)
        std::swap(lo, hi);
    const std::int32_t len = hi - lo + 1;
    const int k = logTable[len];
    const std::int32_t left = sparse[k][lo];
    const std::int32_t right = sparse[k][hi - (1 << k) + 1];
    return eulerNode[eulerDepth[left] <= eulerDepth[right] ? left
                                                           : right];
}

Length
SkewKernel::pathDifference(NodeId a, NodeId b) const
{
    VSYNC_ASSERT(hasTree(), "pathDifference() needs a tree kernel");
    served.fetch_add(1, std::memory_order_relaxed);
    return std::fabs(h[a] - h[b]);
}

Length
SkewKernel::treeDistance(NodeId a, NodeId b) const
{
    return h[a] + h[b] - 2.0 * h[nca(a, b)];
}

void
SkewKernel::arrivals(const WireDelay &delay, Rng &rng,
                     std::span<Time> out) const
{
    VSYNC_ASSERT(hasTree(), "arrivals() needs a tree-compiled kernel");
    VSYNC_ASSERT(delay.valid(), "bad delay parameters m=%g eps=%g",
                 delay.m, delay.eps);
    VSYNC_ASSERT(out.size() == nodeCount(),
                 "%zu arrival slots for %zu nodes", out.size(),
                 nodeCount());
    const double lo = delay.m - delay.eps;
    const double hi = delay.m + delay.eps;
    out[0] = 0.0;
    // One uniform draw per non-root node in id order: the exact draw
    // sequence of the pre-kernel sampleSkewInstance, preserving
    // bit-identity of substream-driven sweeps.
    const std::size_t n = nodeCount();
    for (std::size_t v = 1; v < n; ++v)
        out[v] = out[parentOf[v]] + rng.uniform(lo, hi) * wireLen[v];
    batches.fetch_add(1, std::memory_order_relaxed);
}

Time
SkewKernel::maxCommSkew(std::span<const Time> node_arrival) const
{
    // laneStride(1) == 1, so a contiguous arrival surface IS a
    // width-1 lane-major matrix: the scalar fold is the blocked fold.
    Time worst = 0.0;
    maxCommSkewBlock(node_arrival, std::span<Time>(&worst, 1));
    return worst;
}

void
SkewKernel::maxCommSkewBlock(std::span<const Time> lane_arrival,
                             std::span<Time> out) const
{
    VSYNC_ASSERT(hasTree(), "maxCommSkew() needs a tree kernel");
    const std::size_t width = out.size();
    VSYNC_ASSERT(width >= 1 && width <= maxLanes,
                 "%zu lanes (1..%zu supported)", width, maxLanes);
    const std::size_t stride = laneStride(width);
    VSYNC_ASSERT(lane_arrival.size() == nodeCount() * stride,
                 "%zu arrival slots for %zu nodes x stride %zu",
                 lane_arrival.size(), nodeCount(), stride);
    Time worst[maxLanes] = {};
    const std::size_t pairs = pairCount();
    const Time *arr = lane_arrival.data();
    for (std::size_t i = 0; i < pairs; ++i) {
        const Time *ra =
            arr + static_cast<std::size_t>(foldNodeA[i]) * stride;
        const Time *rb =
            arr + static_cast<std::size_t>(foldNodeB[i]) * stride;
        for (std::size_t j = 0; j < width; ++j)
            worst[j] = std::max(worst[j], std::fabs(ra[j] - rb[j]));
    }
    for (std::size_t j = 0; j < width; ++j)
        out[j] = worst[j];
    served.fetch_add(pairs * width, std::memory_order_relaxed);
}

Time
SkewKernel::sampleMaxCommSkew(const WireDelay &delay, Rng &rng,
                              std::vector<Time> &scratch) const
{
    scratch.resize(nodeCount());
    arrivals(delay, rng, scratch);
    return maxCommSkew(scratch);
}

void
SkewKernel::arrivalsBlock(const WireDelay &delay, std::span<Rng> lanes,
                          std::span<Time> out) const
{
    VSYNC_ASSERT(hasTree(), "arrivals() needs a tree-compiled kernel");
    VSYNC_ASSERT(delay.valid(), "bad delay parameters m=%g eps=%g",
                 delay.m, delay.eps);
    const std::size_t width = lanes.size();
    VSYNC_ASSERT(width >= 1 && width <= maxLanes,
                 "%zu lanes (1..%zu supported)", width, maxLanes);
    const std::size_t stride = laneStride(width);
    VSYNC_ASSERT(out.size() == nodeCount() * stride,
                 "%zu arrival slots for %zu nodes x stride %zu",
                 out.size(), nodeCount(), stride);
    const double lo = delay.m - delay.eps;
    const double hi = delay.m + delay.eps;
    Time *arr = out.data();
    for (std::size_t j = 0; j < width; ++j)
        arr[j] = 0.0;
    // Node chunks keep the draw matrix L1-resident: each lane
    // bulk-fills its strided column (one fillUniform call per lane per
    // chunk, in node id order, so lane j consumes the exact scalar
    // draw sequence of arrivals()), then the node-outer, lane-inner
    // propagation reads the rows back. The arithmetic per lane is the
    // identical expression shape as the scalar path, so every slot is
    // bitwise what arrivals() would have produced for that lane's Rng.
    constexpr std::size_t chunkNodes = 64;
    alignas(64) double draw[chunkNodes * (maxLanes + 1)];
    const std::size_t n = nodeCount();
    for (std::size_t v0 = 1; v0 < n; v0 += chunkNodes) {
        const std::size_t cnt = std::min(chunkNodes, n - v0);
        for (std::size_t j = 0; j < width; ++j)
            lanes[j].fillUniform(lo, hi, draw + j, cnt, stride);
        for (std::size_t k = 0; k < cnt; ++k) {
            const std::size_t v = v0 + k;
            const Time *parentRow =
                arr + static_cast<std::size_t>(parentOf[v]) * stride;
            Time *row = arr + v * stride;
            const double *drow = draw + k * stride;
            const Length wl = wireLen[v];
            for (std::size_t j = 0; j < width; ++j)
                row[j] = parentRow[j] + drow[j] * wl;
        }
    }
    batches.fetch_add(width, std::memory_order_relaxed);
}

void
SkewKernel::sampleMaxCommSkewBlock(const WireDelay &delay,
                                   std::span<Rng> lanes,
                                   std::span<Time> out_skew,
                                   std::vector<Time> &scratch) const
{
    VSYNC_ASSERT(out_skew.size() == lanes.size(),
                 "%zu skew slots for %zu lanes", out_skew.size(),
                 lanes.size());
    scratch.resize(nodeCount() * laneStride(lanes.size()));
    arrivalsBlock(delay, lanes, scratch);
    maxCommSkewBlock(scratch, out_skew);
}

std::uint64_t
SkewKernel::sampleMaxCommSkewRange(const WireDelay &delay,
                                   std::uint64_t seed,
                                   std::uint64_t first_trial,
                                   std::span<Time> out,
                                   std::vector<Time> &scratch) const
{
    const std::size_t blockW = blockWidth();
    std::array<Rng, maxLanes> lanes;
    std::uint64_t draws = 0;
    for (std::size_t i = 0; i < out.size(); i += blockW) {
        const std::size_t w = std::min(blockW, out.size() - i);
        for (std::size_t j = 0; j < w; ++j)
            lanes[j] = Rng::forTrial(seed, first_trial + i + j);
        sampleMaxCommSkewBlock(delay, {lanes.data(), w}, out.subspan(i, w),
                               scratch);
        for (std::size_t j = 0; j < w; ++j)
            draws += lanes[j].draws();
    }
    return draws;
}

ArrivalSkew
SkewKernel::arrivalSkew(std::span<const Time> cell_arrival) const
{
    // Width-1 blocked evaluation (laneStride(1) == 1; see
    // maxCommSkew).
    ArrivalSkew out;
    arrivalSkewBlock(cell_arrival, std::span<ArrivalSkew>(&out, 1));
    return out;
}

void
SkewKernel::arrivalSkewBlock(std::span<const Time> lane_cell_arrival,
                             std::span<ArrivalSkew> out) const
{
    const std::size_t width = out.size();
    VSYNC_ASSERT(width >= 1 && width <= maxLanes,
                 "%zu lanes (1..%zu supported)", width, maxLanes);
    const std::size_t stride = laneStride(width);
    VSYNC_ASSERT(lane_cell_arrival.size() == cellCount() * stride,
                 "%zu arrival slots for %zu cells x stride %zu",
                 lane_cell_arrival.size(), cellCount(), stride);
    for (ArrivalSkew &o : out)
        o = ArrivalSkew{};
    if (!cellCount())
        return;

    const Time *arr = lane_cell_arrival.data();
    std::size_t clocked[maxLanes] = {};
    const std::size_t ncells = cellCount();
    for (std::size_t c = 0; c < ncells; ++c) {
        const Time *row = arr + c * stride;
        for (std::size_t j = 0; j < width; ++j)
            clocked[j] += row[j] < infinity;
    }

    const std::size_t pairs = pairCount();
    for (std::size_t i = 0; i < pairs; ++i) {
        const Time *ra =
            arr + static_cast<std::size_t>(foldCellA[i]) * stride;
        const Time *rb =
            arr + static_cast<std::size_t>(foldCellB[i]) * stride;
        for (std::size_t j = 0; j < width; ++j) {
            const Time ta = ra[j];
            const Time tb = rb[j];
            if (ta >= infinity || tb >= infinity)
                continue;
            ++out[j].clockedPairs;
            out[j].maxCommSkew =
                std::max(out[j].maxCommSkew, std::fabs(ta - tb));
        }
    }
    for (std::size_t j = 0; j < width; ++j) {
        out[j].clockedFraction = static_cast<double>(clocked[j]) /
                                 static_cast<double>(ncells);
        out[j].pairCount = pairs;
    }
    served.fetch_add(pairs * width, std::memory_order_relaxed);
}

std::size_t
SkewKernel::blockWidth() const
{
    std::call_once(tuneOnce, [this] { tunedWidth = autotuneWidth(); });
    return tunedWidth;
}

std::size_t
SkewKernel::autotuneWidth() const
{
    // A tiny best-of-reps sweep over widths 1..8 on this kernel's own
    // arrays. The probe trial count per call equals the width, so the
    // per-trial cost is bestMs / w; every width is bit-identical, so a
    // noisy pick costs speed, never correctness. The counter traffic
    // (batches/served) is a fixed function of the kernel shape --
    // independent of the measured timings -- keeping metric exports
    // deterministic across hosts and runs.
    constexpr std::size_t probeMax = 8;
    constexpr int reps = 3;
    constexpr std::uint64_t probeSeed = 0x7a9eb10cULL;
    if (!hasTree() && !cellCount())
        return 1;
    using ProbeClock = std::chrono::steady_clock;
    const WireDelay probeDelay; // defaults are valid()
    std::vector<Time> scratch;
    std::array<Time, probeMax> skews;
    std::array<ArrivalSkew, probeMax> surfaces;
    std::vector<Rng> lanes;
    lanes.reserve(probeMax);
    double bestPerTrial = infinity;
    std::size_t best = 1;
    for (std::size_t w = 1; w <= probeMax; ++w) {
        double bestMs = infinity;
        for (int rep = 0; rep < reps; ++rep) {
            const auto t0 = ProbeClock::now();
            if (hasTree()) {
                lanes.clear();
                for (std::size_t j = 0; j < w; ++j)
                    lanes.push_back(
                        Rng::forTrial(probeSeed, w * probeMax + j));
                sampleMaxCommSkewBlock(probeDelay, {lanes.data(), w},
                                       {skews.data(), w}, scratch);
            } else {
                scratch.assign(cellCount() * laneStride(w), 0.0);
                arrivalSkewBlock(scratch, {surfaces.data(), w});
            }
            const double ms =
                std::chrono::duration<double, std::milli>(
                    ProbeClock::now() - t0)
                    .count();
            bestMs = std::min(bestMs, ms);
        }
        const double perTrial = bestMs / static_cast<double>(w);
        if (perTrial < bestPerTrial) {
            bestPerTrial = perTrial;
            best = w;
        }
    }
    return best;
}

KernelProvider
directCompile()
{
    return [](const layout::Layout &l, const clocktree::ClockTree *t) {
        return t ? std::make_shared<const SkewKernel>(l, *t)
                 : std::make_shared<const SkewKernel>(l);
    };
}

void
SkewKernel::exportMetrics(obs::MetricsRegistry &reg,
                          const std::string &prefix) const
{
    reg.gauge(prefix + "nodes")
        .set(static_cast<double>(nodeCount()));
    reg.gauge(prefix + "pairs")
        .set(static_cast<double>(pairCount()));
    reg.gauge(prefix + "build_ms").set(buildMs);
    reg.gauge(prefix + "queries_served")
        .set(static_cast<double>(queriesServed()));
    reg.gauge(prefix + "arrival_batches")
        .set(static_cast<double>(arrivalBatches()));
}

} // namespace vsync::core
