#include "core/skew_kernel.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace vsync::core
{

namespace
{

// The frontier fold: worst[j] = max(worst[j], max over the row pairs
// (a[p], b[p]) of |row a - row b| in lane j), for the 8 lanes of a
// compact scratch row. Subtract, absolute value and max are exact, and
// a max does not depend on order, so every ISA and every chunking
// yields the same bits; each path keeps the eight running maxima in
// registers for the chunk's pairs.

void
foldRowsScalar(const Time *rows, const std::int32_t *a,
               const std::int32_t *b, std::size_t pairs, Time *worst)
{
    // Local maxima: stores through worst could alias rows.
    Time acc[8];
    std::copy(worst, worst + 8, acc);
    for (std::size_t p = 0; p < pairs; ++p) {
        const Time *ra = rows + static_cast<std::size_t>(a[p]) * 8;
        const Time *rb = rows + static_cast<std::size_t>(b[p]) * 8;
        for (std::size_t j = 0; j < 8; ++j)
            acc[j] = std::max(acc[j], std::fabs(ra[j] - rb[j]));
    }
    std::copy(acc, acc + 8, worst);
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) void
foldRowsAvx2(const Time *rows, const std::int32_t *a,
             const std::int32_t *b, std::size_t pairs, Time *worst)
{
    const __m256d magnitude =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    __m256d lo = _mm256_loadu_pd(worst);
    __m256d hi = _mm256_loadu_pd(worst + 4);
    for (std::size_t p = 0; p < pairs; ++p) {
        const Time *ra = rows + static_cast<std::size_t>(a[p]) * 8;
        const Time *rb = rows + static_cast<std::size_t>(b[p]) * 8;
        const __m256d dl = _mm256_and_pd(
            _mm256_sub_pd(_mm256_loadu_pd(ra), _mm256_loadu_pd(rb)),
            magnitude);
        const __m256d dh = _mm256_and_pd(
            _mm256_sub_pd(_mm256_loadu_pd(ra + 4), _mm256_loadu_pd(rb + 4)),
            magnitude);
        // max(x, acc) = x > acc ? x : acc, i.e. std::max(acc, x).
        lo = _mm256_max_pd(dl, lo);
        hi = _mm256_max_pd(dh, hi);
    }
    _mm256_storeu_pd(worst, lo);
    _mm256_storeu_pd(worst + 4, hi);
}

#endif

void
foldRows(RngIsa isa, const Time *rows, const std::int32_t *a,
         const std::int32_t *b, std::size_t pairs, Time *worst)
{
#if defined(__x86_64__)
    // Both SIMD ISAs fold with AVX2 (every AVX-512 host has it); a
    // one-zmm-per-row fold measured no faster.
    if (isa != RngIsa::Scalar)
        return foldRowsAvx2(rows, a, b, pairs, worst);
#endif
    foldRowsScalar(rows, a, b, pairs, worst);
}

// The fold of arrivalSkewBlock, branch-free: a cell counts in a lane
// when its arrival is finite, a pair counts when both endpoints do
// (ok), and the pair's |ta - tb| enters the lane's maximum only then
// (masked to +0 otherwise; ta - tb of two infinities is NaN, which the
// mask drops). |x| and max are exact and the arrivals hold no NaN or
// -0, so the maximum does not depend on the fold order or on how the
// lanes are grouped.

/** Lanes of one arrivalSkewBlock group. */
constexpr std::size_t foldLanes = 8;

/** One lane group's counts and maxima. */
struct LaneFold
{
    std::size_t cells[foldLanes];
    std::size_t pairs[foldLanes];
    Time worst[foldLanes];
};

/** The fold of lanes [0, @p m) of the matrix at @p arr, one lane at a
 *  time. */
void
foldLanesScalar(const Time *arr, std::size_t stride, std::size_t m,
                std::size_t ncells, const CellId *a, const CellId *b,
                std::size_t pairs, LaneFold &out)
{
    for (std::size_t j = 0; j < m; ++j) {
        std::size_t cells = 0;
        for (std::size_t c = 0; c < ncells; ++c)
            cells += arr[c * stride + j] < infinity;
        Time acc = 0.0;
        std::size_t count = 0;
        for (std::size_t p = 0; p < pairs; ++p) {
            const Time ta = arr[static_cast<std::size_t>(a[p]) * stride + j];
            const Time tb = arr[static_cast<std::size_t>(b[p]) * stride + j];
            const bool ok = (ta < infinity) & (tb < infinity);
            acc = std::max(acc, ok ? std::fabs(ta - tb) : 0.0);
            count += ok;
        }
        out.cells[j] = cells;
        out.pairs[j] = count;
        out.worst[j] = acc;
    }
}

#if defined(__x86_64__)

/** The fold of all foldLanes lanes, two ymm per row: @pre every row
 *  of the matrix at @p arr has slots [0, foldLanes). */
__attribute__((target("avx2"))) void
foldLanesAvx2(const Time *arr, std::size_t stride, std::size_t ncells,
              const CellId *a, const CellId *b, std::size_t pairs,
              LaneFold &out)
{
    const __m256d never = _mm256_set1_pd(infinity);
    const __m256d magnitude =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    // Lanes [4h, 4h + 4) in half h; a finite lane compares all ones,
    // -1 as an integer.
    __m256i cells[2] = {_mm256_setzero_si256(), _mm256_setzero_si256()};
    for (std::size_t c = 0; c < ncells; ++c) {
        const Time *row = arr + c * stride;
#pragma GCC unroll 2
        for (std::size_t h = 0; h < 2; ++h)
            cells[h] = _mm256_sub_epi64(
                cells[h], _mm256_castpd_si256(_mm256_cmp_pd(
                              _mm256_loadu_pd(row + 4 * h), never,
                              _CMP_LT_OQ)));
    }
    __m256d worst[2] = {_mm256_setzero_pd(), _mm256_setzero_pd()};
    __m256i count[2] = {_mm256_setzero_si256(), _mm256_setzero_si256()};
    for (std::size_t p = 0; p < pairs; ++p) {
        const Time *ra = arr + static_cast<std::size_t>(a[p]) * stride;
        const Time *rb = arr + static_cast<std::size_t>(b[p]) * stride;
#pragma GCC unroll 2
        for (std::size_t h = 0; h < 2; ++h) {
            const __m256d ta = _mm256_loadu_pd(ra + 4 * h);
            const __m256d tb = _mm256_loadu_pd(rb + 4 * h);
            const __m256d ok =
                _mm256_and_pd(_mm256_cmp_pd(ta, never, _CMP_LT_OQ),
                              _mm256_cmp_pd(tb, never, _CMP_LT_OQ));
            const __m256d d = _mm256_and_pd(
                _mm256_and_pd(_mm256_sub_pd(ta, tb), magnitude), ok);
            // max(d, worst) = d > worst ? d : worst, std::max(worst, d).
            worst[h] = _mm256_max_pd(d, worst[h]);
            count[h] = _mm256_sub_epi64(count[h], _mm256_castpd_si256(ok));
        }
    }
    static_assert(sizeof(std::size_t) == sizeof(std::int64_t));
    for (std::size_t h = 0; h < 2; ++h) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out.cells + 4 * h),
                            cells[h]);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out.pairs + 4 * h),
                            count[h]);
        _mm256_storeu_pd(out.worst + 4 * h, worst[h]);
    }
}

#endif

} // namespace

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
    compileSchedule();
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
}

void
SkewKernel::compileSchedule()
{
    // Chunk c of the range entry point's propagation writes nodes
    // [c * foldChunkNodes, (c + 1) * foldChunkNodes) (the root is
    // written once per call), then folds the pairs whose later
    // endpoint it wrote. A node's row is live from its own step until
    // both its last child (in id order) has read it and the last chunk
    // folding one of its pairs has ended. A row held only by children
    // goes to the last child in place -- a step reads its parent before
    // it writes -- and so does a row whose pairs were all folded at an
    // earlier chunk's end; any other row is released at the end of the
    // chunk that folds its last pair, and a node with neither is
    // released as soon as it is written. Released rows are reused most
    // recent first. Everything below is a counting pass: no sort.
    const std::size_t n = nodeCount();
    const std::size_t npairs = pairNodeA.size();
    const NodeId C = static_cast<NodeId>(foldChunkNodes);
    const NodeId chunks = static_cast<NodeId>((n + C - 1) / C);

    std::vector<NodeId> lastChild(n, invalidId);
    for (NodeId v = 1; static_cast<std::size_t>(v) < n; ++v)
        lastChild[parentOf[v]] = v;
    // Bucket the pairs by fold chunk, in comm() order within a chunk;
    // pairSlotA/B hold node ids until the rows are known.
    std::vector<NodeId> lastFold(n, -1);
    std::vector<std::uint32_t> fill(chunks + 1, 0);
    for (std::size_t i = 0; i < npairs; ++i) {
        const NodeId a = pairNodeA[i];
        const NodeId b = pairNodeB[i];
        const NodeId c = std::max(a, b) / C;
        lastFold[a] = std::max(lastFold[a], c);
        lastFold[b] = std::max(lastFold[b], c);
        ++fill[c + 1];
    }
    for (NodeId c = 1; c <= chunks; ++c)
        fill[c] += fill[c - 1];
    chunkPairEnd.assign(fill.begin() + 1, fill.end());
    pairSlotA.resize(npairs);
    pairSlotB.resize(npairs);
    for (std::size_t i = 0; i < npairs; ++i) {
        const std::uint32_t k =
            fill[std::max(pairNodeA[i], pairNodeB[i]) / C]++;
        pairSlotA[k] = pairNodeA[i];
        pairSlotB[k] = pairNodeB[i];
    }

    std::vector<std::int32_t> slot(n);
    std::vector<std::int32_t> released;
    std::int32_t rows = 0;
    const auto take = [&] {
        if (released.empty())
            return rows++;
        const std::int32_t r = released.back();
        released.pop_back();
        return r;
    };
    slot[0] = take(); // the root's row, never released
    slotFrom.resize(n - 1);
    slotTo.resize(n - 1);
    std::uint32_t p0 = 0;
    for (NodeId c = 0; c < chunks; ++c) {
        const NodeId end = std::min(static_cast<NodeId>(n), (c + 1) * C);
        for (NodeId v = std::max(1, c * C); v < end; ++v) {
            const NodeId p = parentOf[v];
            if (lastChild[p] == v && p != 0 && lastFold[p] < c)
                released.push_back(slot[p]);
            slot[v] = take();
            if (lastChild[v] == invalidId && lastFold[v] < 0)
                released.push_back(slot[v]);
            slotFrom[v - 1] = slot[p];
            slotTo[v - 1] = slot[v];
        }
        // Rows whose last fold is this chunk's and whose last child has
        // been written; lastFold = -1 marks a row released.
        for (; p0 < chunkPairEnd[c]; ++p0) {
            for (const NodeId x : {pairSlotA[p0], pairSlotB[p0]}) {
                if (x != 0 && lastFold[x] == c &&
                    (lastChild[x] == invalidId || lastChild[x] / C <= c)) {
                    released.push_back(slot[x]);
                    lastFold[x] = -1;
                }
            }
        }
    }
    slotRows = static_cast<std::size_t>(rows);
    for (std::size_t k = 0; k < npairs; ++k) {
        pairSlotA[k] = slot[pairSlotA[k]];
        pairSlotB[k] = slot[pairSlotB[k]];
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
    // compileTree() checked parent(v) < v, so the larger id is never
    // an ancestor of the smaller: stepping it up walks the tree path.
    while (a != b) {
        if (a > b)
            a = parentOf[a];
        else
            b = parentOf[b];
    }
    return a;
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
            arr + static_cast<std::size_t>(pairNodeA[i]) * stride;
        const Time *rb =
            arr + static_cast<std::size_t>(pairNodeB[i]) * stride;
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
    Time *arr = out.data();
    for (std::size_t j = 0; j < width; ++j)
        arr[j] = 0.0;
    // Node-major rows: step v writes row v from row parent(v), so the
    // fused lane kernel replays arrivals() lane by lane. Chunks of 64
    // nodes supply the row indices of the steps.
    constexpr std::size_t chunkNodes = 64;
    std::int32_t rowOf[chunkNodes];
    const std::size_t n = nodeCount();
    for (std::size_t v0 = 1; v0 < n; v0 += chunkNodes) {
        const std::size_t cnt = std::min(chunkNodes, n - v0);
        for (std::size_t k = 0; k < cnt; ++k)
            rowOf[k] = static_cast<std::int32_t>(v0 + k);
        const LaneSteps steps{parentOf.data() + v0, rowOf,
                              wireLen.data() + v0, cnt};
        Rng::propagateUniformLanes(lanes, delay.lo(), delay.hi(), steps,
                                   arr, stride);
    }
    batches.fetch_add(width, std::memory_order_relaxed);
}

std::uint64_t
SkewKernel::sampleMaxCommSkewRange(const WireDelay &delay,
                                   std::uint64_t seed,
                                   std::uint64_t first_trial,
                                   std::span<Time> out,
                                   std::vector<Time> &scratch,
                                   RngIsa isa) const
{
    VSYNC_ASSERT(hasTree(), "sampling needs a tree-compiled kernel");
    VSYNC_ASSERT(delay.valid(), "bad delay parameters m=%g eps=%g",
                 delay.m, delay.eps);
    constexpr std::size_t W = blockWidth();
    static_assert(W == 8, "foldRows works on 8-lane rows");
    // Rows of W lanes aligned to 64 bytes: one cache line per row.
    scratch.resize(slotRows * W + W);
    const std::uintptr_t addr =
        reinterpret_cast<std::uintptr_t>(scratch.data());
    Time *rows = scratch.data() + (64 - addr % 64) % 64 / sizeof(Time);
    std::fill(rows, rows + W, 0.0); // the root's row, never overwritten
    const std::size_t steps = nodeCount() - 1;
    std::array<Rng, W> lanes;
    std::uint64_t draws = 0;
    for (std::size_t i = 0; i < out.size(); i += W) {
        const std::size_t w = std::min(W, out.size() - i);
        for (std::size_t j = 0; j < w; ++j)
            lanes[j] = Rng::forTrial(seed, first_trial + i + j);
        // Chunk c's steps write nodes [c, c + 1) * foldChunkNodes, the
        // root excepted; its fold reads rows that chunk or an earlier
        // one wrote and that no step has reused yet. Lanes past w hold
        // stale rows; their maxima are dropped.
        Time worst[W] = {};
        std::size_t k0 = 0;
        std::uint32_t p0 = 0;
        for (std::size_t c = 0; c < chunkPairEnd.size(); ++c) {
            const std::size_t k1 =
                std::min((c + 1) * foldChunkNodes - 1, steps);
            const std::uint32_t p1 = chunkPairEnd[c];
            const LaneSteps chunk{slotFrom.data() + k0, slotTo.data() + k0,
                                  wireLen.data() + 1 + k0, k1 - k0};
            Rng::propagateUniformLanes({lanes.data(), w}, delay.lo(),
                                       delay.hi(), chunk, rows, W, isa);
            foldRows(isa, rows, pairSlotA.data() + p0,
                     pairSlotB.data() + p0, p1 - p0, worst);
            k0 = k1;
            p0 = p1;
        }
        for (std::size_t j = 0; j < w; ++j) {
            out[i + j] = worst[j];
            draws += lanes[j].draws();
        }
    }
    batches.fetch_add(out.size(), std::memory_order_relaxed);
    served.fetch_add(pairCount() * out.size(), std::memory_order_relaxed);
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
                             std::span<ArrivalSkew> out, RngIsa isa) const
{
    const std::size_t width = out.size();
    VSYNC_ASSERT(width >= 1 && width <= maxLanes,
                 "%zu lanes (1..%zu supported)", width, maxLanes);
    const std::size_t stride = laneStride(width);
    VSYNC_ASSERT(lane_cell_arrival.size() == cellCount() * stride,
                 "%zu arrival slots for %zu cells x stride %zu",
                 lane_cell_arrival.size(), cellCount(), stride);
    VSYNC_ASSERT(rngIsaSupported(isa), "this host cannot run %s",
                 rngIsaName(isa));
    for (ArrivalSkew &o : out)
        o = ArrivalSkew{};
    if (!cellCount())
        return;

    const Time *arr = lane_cell_arrival.data();
    const std::size_t ncells = cellCount();
    const std::size_t pairs = pairCount();
    for (std::size_t g = 0; g < width; g += foldLanes) {
        const std::size_t m = std::min(foldLanes, width - g);
        LaneFold f;
#if defined(__x86_64__)
        // A row holds foldLanes slots past g unless it is short (width
        // 1, or a partial last group): then each lane folds alone.
        if (isa != RngIsa::Scalar && g + foldLanes <= stride)
            foldLanesAvx2(arr + g, stride, ncells, pairCellA.data(),
                          pairCellB.data(), pairs, f);
        else
#endif
            foldLanesScalar(arr + g, stride, m, ncells, pairCellA.data(),
                            pairCellB.data(), pairs, f);
        for (std::size_t j = 0; j < m; ++j) {
            ArrivalSkew &o = out[g + j];
            o.clockedFraction = static_cast<double>(f.cells[j]) /
                                static_cast<double>(ncells);
            o.maxCommSkew = f.worst[j];
            o.clockedPairs = f.pairs[j];
            o.pairCount = pairs;
        }
    }
    served.fetch_add(pairs * width, std::memory_order_relaxed);
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
    reg.gauge(prefix + "compact_rows")
        .set(static_cast<double>(compactRows()));
    reg.gauge(prefix + "build_ms").set(buildMs);
    reg.gauge(prefix + "queries_served")
        .set(static_cast<double>(queriesServed()));
    reg.gauge(prefix + "arrival_batches")
        .set(static_cast<double>(arrivalBatches()));
}

} // namespace vsync::core
