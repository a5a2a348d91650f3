/**
 * @file
 * The lane-blocked skew-sampling path.
 *
 * The blocked entry points' whole contract is "scalar results, fewer
 * passes": at every width the lanes must replay the scalar draw
 * sequence draw-for-draw (same Rng::draws() accounting) and produce
 * bitwise-identical results. These tests pin that contract across
 * widths {1, 2, 3, 4, 7, 8, 16} -- odd, even, power-of-two (the
 * stride-padding case) and wider than one 8-lane group -- on the
 * htree, spine and TRIX-grid scenarios, through remainder blocks
 * (trials % W != 0) and through the blocked SweepService at 1/2/8
 * threads. The range entry point's frontier schedule is checked on
 * every ISA the host can run, on DFS-ordered H-trees, spines and
 * random (not DFS-ordered) trees of several fold chunks, and with a
 * scratch carried from one kernel to another.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clocktree/builders.hh"
#include "common/rng.hh"
#include "core/skew_kernel.hh"
#include "fault/fault_plan.hh"
#include "layout/generators.hh"
#include "mc/resilience.hh"
#include "mc/sweeps.hh"
#include "serve/sweep_service.hh"
#include "test_util.hh"

namespace
{

using namespace vsync;
using core::SkewKernel;
using core::WireDelay;

constexpr WireDelay kDelay{0.05, 0.005};
constexpr std::size_t kWidths[] = {1, 2, 3, 4, 7, 8, 16};
constexpr unsigned kThreadCounts[] = {1, 2, 8};

TEST(LaneStride, PadsEvenWidthsToOdd)
{
    EXPECT_EQ(SkewKernel::laneStride(1), 1u);
    EXPECT_EQ(SkewKernel::laneStride(2), 3u);
    EXPECT_EQ(SkewKernel::laneStride(3), 3u);
    EXPECT_EQ(SkewKernel::laneStride(4), 5u);
    EXPECT_EQ(SkewKernel::laneStride(7), 7u);
    EXPECT_EQ(SkewKernel::laneStride(8), 9u);
    EXPECT_EQ(SkewKernel::laneStride(16), 17u);
}

/** Tree scenarios the blocked propagation must replay exactly. */
std::vector<std::pair<layout::Layout, clocktree::ClockTree>>
treeScenarios()
{
    std::vector<std::pair<layout::Layout, clocktree::ClockTree>> out;
    layout::Layout mesh = layout::meshLayout(8, 8);
    clocktree::ClockTree htree = clocktree::buildHTreeGrid(mesh, 8, 8);
    out.emplace_back(std::move(mesh), std::move(htree));
    layout::Layout line = layout::meshLayout(6, 6);
    clocktree::ClockTree spine = clocktree::buildSpine(line);
    out.emplace_back(std::move(line), std::move(spine));
    return out;
}

TEST(SkewBlock, ArrivalsBitIdenticalToScalarAtEveryWidth)
{
    for (const auto &[l, tree] : treeScenarios()) {
        const SkewKernel kernel(l, tree);
        const std::size_t n = kernel.nodeCount();
        for (const std::size_t w : kWidths) {
            const std::size_t stride = SkewKernel::laneStride(w);
            std::vector<Rng> lanes;
            for (std::size_t j = 0; j < w; ++j)
                lanes.push_back(Rng::forTrial(0xb10c, j));
            std::vector<Time> block(n * stride, -1.0);
            kernel.arrivalsBlock(kDelay, {lanes.data(), w},
                                 std::span<Time>(block));

            for (std::size_t j = 0; j < w; ++j) {
                Rng scalar_rng = Rng::forTrial(0xb10c, j);
                std::vector<Time> scalar(n);
                kernel.arrivals(kDelay, scalar_rng,
                                std::span<Time>(scalar));
                for (std::size_t v = 0; v < n; ++v)
                    ASSERT_EQ(block[v * stride + j], scalar[v])
                        << "width " << w << " lane " << j << " node "
                        << v;
                // Exact draw accounting: lane j consumed precisely the
                // scalar sequence, no more, no fewer.
                EXPECT_EQ(lanes[j].draws(), scalar_rng.draws())
                    << "width " << w << " lane " << j;
            }
        }
    }
}

TEST(SkewBlock, ArrivalsThenFoldMatchScalarAtEveryWidth)
{
    for (const auto &[l, tree] : treeScenarios()) {
        const SkewKernel kernel(l, tree);
        std::vector<Time> scratch, scalar_scratch;
        for (const std::size_t w : kWidths) {
            std::vector<Rng> lanes;
            for (std::size_t j = 0; j < w; ++j)
                lanes.push_back(Rng::forTrial(0x5eed, 100 + j));
            std::vector<Time> skew(w, -1.0);
            scratch.resize(kernel.nodeCount() * SkewKernel::laneStride(w));
            kernel.arrivalsBlock(kDelay, {lanes.data(), w}, scratch);
            kernel.maxCommSkewBlock(scratch, skew);
            for (std::size_t j = 0; j < w; ++j) {
                Rng scalar_rng = Rng::forTrial(0x5eed, 100 + j);
                const Time ref = kernel.sampleMaxCommSkew(
                    kDelay, scalar_rng, scalar_scratch);
                EXPECT_EQ(skew[j], ref)
                    << "width " << w << " lane " << j;
                EXPECT_EQ(lanes[j].draws(), scalar_rng.draws())
                    << "width " << w << " lane " << j;
            }
        }
    }
}

TEST(SkewBlock, ArrivalSkewBlockMatchesScalarOnTrixSurfaces)
{
    // Pairs-only kernel, as the TRIX-grid drivers compile it; random
    // surfaces at unclocked (infinite) densities from none to every
    // cell exercise the pair exclusion and clocked-fraction counting
    // per lane, on every ISA. From width 3 on, the last lane is
    // unclocked everywhere (skew +0, no clocked pair) and the one
    // before it has one arrival everywhere (skew +0, every pair
    // clocked). Blocked and scalar results must both equal a naive
    // fold over the comm edges, bitwise.
    const layout::Layout l = layout::meshLayout(7, 7);
    const SkewKernel kernel(l);
    const std::size_t cells = kernel.cellCount();
    const std::vector<graph::Edge> edges = l.comm().undirectedEdges();
    const double kDensities[] = {0.0, 0.05, 0.2, 0.5, 0.95, 1.0};
    for (const RngIsa isa : testutil::supportedRngIsas()) {
        for (const double density : kDensities) {
            for (const std::size_t w : kWidths) {
                const std::size_t stride = SkewKernel::laneStride(w);
                std::vector<std::vector<Time>> scalar(
                    w, std::vector<Time>(cells));
                std::vector<Time> block(cells * stride, 0.0);
                Rng rng(0xfab + w);
                for (std::size_t j = 0; j < w; ++j) {
                    for (std::size_t c = 0; c < cells; ++c) {
                        Time t = rng.bernoulli(density)
                                     ? infinity
                                     : rng.uniform(0.0, 5.0);
                        if (w >= 3 && j == w - 1)
                            t = infinity;
                        else if (w >= 3 && j == w - 2)
                            t = 2.5;
                        scalar[j][c] = t;
                        block[c * stride + j] = t;
                    }
                }
                std::vector<core::ArrivalSkew> got(w);
                kernel.arrivalSkewBlock(std::span<const Time>(block),
                                        std::span<core::ArrivalSkew>(got),
                                        isa);
                for (std::size_t j = 0; j < w; ++j) {
                    const std::string what =
                        std::string(rngIsaName(isa)) + " density " +
                        std::to_string(density) + " width " +
                        std::to_string(w) + " lane " + std::to_string(j);
                    // Naive reference straight off the layout's comm
                    // graph: scalar arrivalSkew() is the width-1
                    // blocked fold, so it cannot stand in for an
                    // independent one.
                    core::ArrivalSkew ref;
                    std::size_t clocked = 0;
                    for (const Time t : scalar[j])
                        clocked += t < infinity;
                    ref.clockedFraction = static_cast<double>(clocked) /
                                          static_cast<double>(cells);
                    for (const graph::Edge &e : edges) {
                        ++ref.pairCount;
                        const Time ta = scalar[j][e.src];
                        const Time tb = scalar[j][e.dst];
                        if (ta >= infinity || tb >= infinity)
                            continue;
                        ++ref.clockedPairs;
                        ref.maxCommSkew =
                            std::max(ref.maxCommSkew, std::fabs(ta - tb));
                    }
                    if (w >= 3 && j == w - 1) {
                        EXPECT_EQ(ref.clockedPairs, 0u) << what;
                    } else if (w >= 3 && j == w - 2) {
                        EXPECT_EQ(ref.clockedPairs, ref.pairCount) << what;
                        EXPECT_EQ(ref.maxCommSkew, 0.0) << what;
                    }
                    for (const core::ArrivalSkew &r :
                         {got[j], kernel.arrivalSkew(scalar[j])}) {
                        // Bitwise: an all-unclocked or all-equal lane
                        // must give +0, not -0 or NaN.
                        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.maxCommSkew),
                                  std::bit_cast<std::uint64_t>(
                                      ref.maxCommSkew))
                            << what << ": " << r.maxCommSkew << " vs "
                            << ref.maxCommSkew;
                        EXPECT_EQ(r.clockedFraction, ref.clockedFraction)
                            << what;
                        EXPECT_EQ(r.clockedPairs, ref.clockedPairs) << what;
                        EXPECT_EQ(r.pairCount, ref.pairCount) << what;
                    }
                }
            }
        }
    }
}

TEST(SkewBlock, BlockWidthIsFixedAtEight)
{
    static_assert(SkewKernel::blockWidth() == 8);
    const layout::Layout l = layout::meshLayout(8, 8);
    const auto tree = clocktree::buildHTreeGrid(l, 8, 8);
    EXPECT_EQ(SkewKernel(l, tree).blockWidth(), 8u);
    EXPECT_EQ(SkewKernel(l).blockWidth(), 8u);
}

TEST(SkewBlock, FrontierRowsStayNearTheBisectionOnHTrees)
{
    // The H-tree builders number nodes in DFS pre-order, so the rows a
    // chunk's fold still needs are the cut between written and
    // unwritten cells -- O(side), the bisection of Lemma 4 -- plus at
    // most one chunk's own rows, however many cells the mesh has.
    for (const int side : {8, 16, 32, 64, 128, 256}) {
        const layout::Layout l = layout::meshLayout(side, side);
        const SkewKernel kernel(l, clocktree::buildHTreeGrid(l, side, side));
        EXPECT_EQ(kernel.nodeCount(), 3 * l.size() - 1) << side;
        EXPECT_LE(kernel.compactRows(),
                  2 * static_cast<std::size_t>(side) +
                      SkewKernel::foldChunkNodes)
            << side;
        if (side == 256) {
            EXPECT_LT(kernel.compactRows(), l.size() / 50);
        }
    }
    EXPECT_EQ(SkewKernel(layout::meshLayout(4, 4)).compactRows(), 0u);
}

/** sampleMaxCommSkewRange on @p isa against the scalar sampler, trial
 *  by trial, including the returned draw count; the range runs on
 *  @p scratch as left by any earlier call. */
void
expectRangeMatchesScalar(const SkewKernel &kernel, RngIsa isa,
                         std::uint64_t seed, std::uint64_t first,
                         std::size_t n, std::vector<Time> &scratch)
{
    std::vector<Time> out(n, -1.0), scalar_scratch;
    const std::uint64_t draws = kernel.sampleMaxCommSkewRange(
        kDelay, seed, first, out, scratch, isa);
    std::uint64_t want_draws = 0;
    for (std::size_t k = 0; k < n; ++k) {
        Rng rng = Rng::forTrial(seed, first + k);
        ASSERT_EQ(out[k],
                  kernel.sampleMaxCommSkew(kDelay, rng, scalar_scratch))
            << rngIsaName(isa) << " trial " << first + k;
        want_draws += rng.draws();
    }
    EXPECT_EQ(draws, want_draws) << rngIsaName(isa);
}

void
expectRangeMatchesScalar(const SkewKernel &kernel, RngIsa isa,
                         std::uint64_t seed, std::uint64_t first,
                         std::size_t n)
{
    std::vector<Time> scratch;
    expectRangeMatchesScalar(kernel, isa, seed, first, n, scratch);
}

TEST(SkewBlock, RangeMatchesScalarOnEveryIsaAndTreeShape)
{
    const auto isas = testutil::supportedRngIsas();
    // Random trees: ids topological but not DFS pre-order, so the
    // schedule recycles rows out of pre-order.
    const layout::Layout pair = layout::linearLayout(2);
    for (std::uint64_t shape = 0; shape < 12; ++shape) {
        Rng rng = Rng::forTrial(0x7ee5, shape);
        const std::size_t n = 2 + rng.uniformInt(shape < 6 ? 60 : 600);
        const SkewKernel kernel(pair, testutil::randomTree(n, rng));
        EXPECT_LE(kernel.compactRows(), n) << "shape " << shape;
        for (const RngIsa isa : isas)
            expectRangeMatchesScalar(kernel, isa, 0x5a + shape, 3, 19);
    }
    // A spine clocks cells on internal nodes; an H-tree is the DFS case.
    for (const auto &[l, tree] : treeScenarios()) {
        const SkewKernel kernel(l, tree);
        for (const RngIsa isa : isas)
            expectRangeMatchesScalar(kernel, isa, 0x5b, 11, 21);
    }
}

/** The fold chunk that writes node @p v. */
std::size_t
foldChunk(NodeId v)
{
    return static_cast<std::size_t>(v) / SkewKernel::foldChunkNodes;
}

/** Every supported ISA, with remainder blocks of 1..7 lanes behind a
 *  full block. */
void
expectRangeMatchesScalarOnEveryIsa(const SkewKernel &kernel,
                                   std::uint64_t seed)
{
    for (const RngIsa isa : testutil::supportedRngIsas()) {
        for (std::size_t rem = 1; rem < SkewKernel::blockWidth(); ++rem)
            expectRangeMatchesScalar(kernel, isa, seed, 2 * rem,
                                     SkewKernel::blockWidth() + rem);
    }
}

TEST(SkewBlock, RangeMatchesScalarAcrossFoldChunks)
{
    // Random trees of three or four fold chunks. Each clocks an 8x8
    // mesh's cells on random nodes, internal ones included (as
    // buildSpine binds them), so pairs fall inside one chunk and
    // across chunks, and rows go to a last child in place as well as
    // wait for a chunk's fold.
    constexpr std::size_t C = SkewKernel::foldChunkNodes;
    const layout::Layout mesh = layout::meshLayout(8, 8);
    const layout::Layout pair = layout::linearLayout(2);
    std::size_t inside = 0, straddling = 0, foldAtLastChild = 0;
    for (std::uint64_t shape = 0; shape < 4; ++shape) {
        Rng rng = Rng::forTrial(0xc4a2, shape);
        const std::size_t n = 2 * C + 1 + rng.uniformInt(2 * C - 1);
        const clocktree::ClockTree bare = testutil::randomShape(n, rng);
        ASSERT_GE(foldChunk(static_cast<NodeId>(n - 1)), 2u);
        std::vector<NodeId> lastChild(n, invalidId);
        for (NodeId v = 1; static_cast<std::size_t>(v) < n; ++v)
            lastChild[bare.structure().parent(v)] = v;

        clocktree::ClockTree spread = bare;
        std::vector<NodeId> free(n);
        std::iota(free.begin(), free.end(), 0);
        for (CellId c = 0; static_cast<std::size_t>(c) < mesh.size();
             ++c) {
            const std::size_t pick = rng.uniformInt(free.size());
            spread.bindCell(free[pick], c);
            free[pick] = free.back();
            free.pop_back();
        }
        const SkewKernel kernel(mesh, spread);
        // 1 + the chunk folding a node's last pair; 0 for no pair.
        std::vector<std::size_t> lastFold(n, 0);
        for (std::size_t i = 0; i < kernel.pairCount(); ++i) {
            const NodeId a = kernel.pairNodesA()[i];
            const NodeId b = kernel.pairNodesB()[i];
            const std::size_t c = foldChunk(std::max(a, b));
            (foldChunk(std::min(a, b)) == c ? inside : straddling) += 1;
            lastFold[a] = std::max(lastFold[a], c + 1);
            lastFold[b] = std::max(lastFold[b], c + 1);
        }
        for (std::size_t v = 0; v < n; ++v) {
            foldAtLastChild += lastChild[v] != invalidId &&
                               lastFold[v] == foldChunk(lastChild[v]) + 1;
        }
        expectRangeMatchesScalarOnEveryIsa(kernel, 0x61 + shape);

        // One pair on an internal node p whose last child v lands in a
        // later chunk: the fold of (p, q) must read p's row, not v's,
        // whether q falls in v's chunk or after it.
        NodeId p = 1;
        while (static_cast<std::size_t>(p) < n &&
               (lastChild[p] == invalidId ||
                foldChunk(lastChild[p]) == foldChunk(p) ||
                foldChunk(lastChild[p]) + 1 >
                    foldChunk(static_cast<NodeId>(n - 1))))
            ++p;
        ASSERT_LT(static_cast<std::size_t>(p), n) << "shape " << shape;
        const std::size_t vc = foldChunk(lastChild[p]);
        for (const NodeId q :
             {static_cast<NodeId>((vc + 1) * C - 1),
              static_cast<NodeId>(n - 1)}) {
            clocktree::ClockTree probe = bare;
            probe.bindCell(p, 0);
            probe.bindCell(q, 1);
            expectRangeMatchesScalarOnEveryIsa(SkewKernel(pair, probe),
                                               0x71 + shape);
        }
    }
    EXPECT_GT(inside, 0u);
    EXPECT_GT(straddling, 0u);
    EXPECT_GT(foldAtLastChild, 0u);
}

TEST(SkewBlock, RangeScratchCarriesFromLargeKernelToSmall)
{
    // A worker's scratch outlives the kernel: a 32x32 range after a
    // 256x256 one starts from the larger kernel's stale rows.
    const layout::Layout big = layout::meshLayout(256, 256);
    const SkewKernel large(big, clocktree::buildHTreeGrid(big, 256, 256));
    const layout::Layout l = layout::meshLayout(32, 32);
    const SkewKernel small(l, clocktree::buildHTreeGrid(l, 32, 32));
    for (const RngIsa isa : testutil::supportedRngIsas()) {
        std::vector<Time> scratch;
        expectRangeMatchesScalar(large, isa, 0x256, 7, 9, scratch);
        expectRangeMatchesScalar(small, isa, 0x32, 5, 13, scratch);
    }
}

TEST(SkewBlock, SkewSweepHandlesRemainderTrials)
{
    // trials not divisible by any candidate width, and a grain that
    // splits chunks mid-block: every chunk end runs a narrower
    // remainder block, which must not change a single bit vs the
    // scalar per-trial sampler.
    const layout::Layout l = layout::meshLayout(6, 6);
    const auto tree = clocktree::buildHTreeGrid(l, 6, 6);
    const SkewKernel kernel(l, tree);

    mc::McConfig cfg;
    cfg.seed = 0xabcd;
    cfg.trials = 29;
    cfg.grain = 5;
    const mc::McResult sweep = mc::skewSweep(l, tree, kDelay, cfg);

    std::vector<Time> scratch;
    for (std::size_t i = 0; i < cfg.trials; ++i) {
        Rng rng = Rng::forTrial(cfg.seed, i);
        EXPECT_EQ(sweep.samples[i],
                  kernel.sampleMaxCommSkew(kDelay, rng, scratch))
            << "trial " << i;
    }
}

TEST(SkewBlock, ResilienceRunTrialBlockMatchesRunTrial)
{
    // Widths up to two lane groups of lockstep plans, at rates where
    // most sites fail as well as sparse ones.
    const layout::Layout l = layout::meshLayout(5, 5);
    const mc::ResilienceConfig rc;
    for (const auto kind :
         {mc::DistributionKind::HTree, mc::DistributionKind::Spine,
          mc::DistributionKind::TrixGrid}) {
        for (const double rate : {0.05, 0.5, 1.0}) {
            const mc::ResilienceScenario scenario =
                mc::compileResilienceScenario(l, 5, 5, kind, rate, rc,
                                              core::directCompile());
            std::vector<Time> laneScratch;
            for (const std::size_t w :
                 {std::size_t{1}, std::size_t{3}, std::size_t{4},
                  std::size_t{8}, std::size_t{13}}) {
                std::vector<double> skew(w), clocked(w), faults(w);
                scenario.runTrialBlock(0x77, 10, w,
                                       std::span<double>(skew),
                                       std::span<double>(clocked),
                                       std::span<double>(faults), nullptr,
                                       laneScratch);
                for (std::size_t j = 0; j < w; ++j) {
                    const fault::DistributionOutcome ref =
                        scenario.runTrial(0x77, 10 + j);
                    const std::string what =
                        mc::distributionKindName(kind) + " rate " +
                        std::to_string(rate) + " width " +
                        std::to_string(w) + " lane " + std::to_string(j);
                    EXPECT_EQ(skew[j], ref.maxCommSkew) << what;
                    EXPECT_EQ(clocked[j], ref.clockedFraction) << what;
                    EXPECT_EQ(faults[j],
                              static_cast<double>(ref.faultCount))
                        << what;
                }
            }
        }
    }

    // Plans of more hits than a lane keeps between blocks (4,800 dead
    // links alone on a 40x40 grid at rate 1): consecutive blocks must
    // not depend on the lists released in between.
    const layout::Layout big = layout::meshLayout(40, 40);
    const mc::ResilienceScenario dense = mc::compileResilienceScenario(
        big, 40, 40, mc::DistributionKind::TrixGrid, 1.0, rc,
        core::directCompile());
    std::vector<Time> laneScratch;
    for (const std::uint64_t first : {std::uint64_t{3}, std::uint64_t{11}}) {
        std::vector<double> skew(8), clocked(8), faults(8);
        dense.runTrialBlock(0x77, first, 8, std::span<double>(skew),
                            std::span<double>(clocked),
                            std::span<double>(faults), nullptr, laneScratch);
        for (std::size_t j = 0; j < 8; ++j) {
            const fault::DistributionOutcome ref =
                dense.runTrial(0x77, first + j);
            EXPECT_EQ(skew[j], ref.maxCommSkew) << "trial " << first + j;
            EXPECT_EQ(clocked[j], ref.clockedFraction)
                << "trial " << first + j;
            EXPECT_EQ(faults[j], static_cast<double>(ref.faultCount))
                << "trial " << first + j;
        }
    }
}

TEST(SkewBlock, RangeEntryPointsMatchScalarAndCountDraws)
{
    // A range starting mid-stream whose length leaves a remainder
    // block at any width: every slot is the scalar trial, and the
    // returned draw count is the scalar draw count.
    constexpr std::uint64_t seed = 0x4a11;
    constexpr std::uint64_t first = 17;
    constexpr std::size_t n = 23;
    for (const auto &[l, tree] : treeScenarios()) {
        const SkewKernel kernel(l, tree);
        std::vector<Time> out(n), scratch;
        const std::uint64_t draws = kernel.sampleMaxCommSkewRange(
            kDelay, seed, first, out, scratch);
        std::uint64_t want_draws = 0;
        for (std::size_t k = 0; k < n; ++k) {
            Rng rng = Rng::forTrial(seed, first + k);
            EXPECT_EQ(out[k], kernel.sampleMaxCommSkew(kDelay, rng, scratch))
                << "trial " << first + k;
            want_draws += rng.draws();
        }
        EXPECT_EQ(draws, want_draws);
    }

    const layout::Layout l = layout::meshLayout(5, 5);
    for (const auto kind : {mc::DistributionKind::HTree,
                            mc::DistributionKind::TrixGrid}) {
        const mc::ResilienceScenario scenario =
            mc::compileResilienceScenario(l, 5, 5, kind, 0.05,
                                          mc::ResilienceConfig{},
                                          core::directCompile());
        std::vector<double> skew(n), clocked(n), faults(n);
        std::vector<Time> scratch;
        const std::uint64_t draws = scenario.runTrialRange(
            seed, first, skew, clocked, faults, nullptr, scratch);
        std::uint64_t want_draws = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const fault::DistributionOutcome ref =
                scenario.runTrial(seed, first + k);
            EXPECT_EQ(skew[k], ref.maxCommSkew) << "trial " << first + k;
            EXPECT_EQ(clocked[k], ref.clockedFraction)
                << "trial " << first + k;
            EXPECT_EQ(faults[k], static_cast<double>(ref.faultCount))
                << "trial " << first + k;
            // The oracle's draws: FaultPlan::generate's plan substreams
            // plus the delay stream the compiled pass reads.
            const Rng trial_rng = Rng::forTrial(seed, first + k);
            Rng plan_rng = trial_rng.deriveStream(mc::planSalt);
            Rng delay_rng = trial_rng.deriveStream(mc::delaySalt);
            const fault::FaultPlan plan = fault::FaultPlan::generate(
                scenario.universe, scenario.rates, plan_rng);
            std::vector<Time> arrival(scenario.kernel->cellCount());
            scenario.cellArrivals(plan, delay_rng, arrival.data());
            want_draws += plan.draws() + delay_rng.draws();
        }
        EXPECT_EQ(draws, want_draws) << mc::distributionKindName(kind);
        EXPECT_GT(draws, 0u);
    }
}

TEST(SkewBlock, SweepServiceBitIdenticalAcrossThreadCounts)
{
    // The blocked work-unit loops must preserve the service's
    // determinism contract: outcomes equal the mc:: references at
    // 1/2/8 threads, including remainder blocks at unit boundaries.
    const layout::Layout l = layout::meshLayout(6, 6);
    const auto tree = clocktree::buildHTreeGrid(l, 6, 6);

    mc::McConfig cfg;
    cfg.seed = 0x5107;
    cfg.trials = 37; // prime: remainder blocks at every grain
    cfg.grain = 5;
    const mc::ResilienceConfig rc;
    const mc::McResult refSkew = mc::skewSweep(l, tree, kDelay, cfg);
    const mc::ResiliencePoint refRes = mc::resilienceAtRate(
        l, 6, 6, mc::DistributionKind::HTree, 0.05, rc, cfg);

    for (const unsigned tc : kThreadCounts) {
        serve::ServiceConfig sc;
        sc.threads = tc;
        serve::SweepService svc(sc);
        serve::ResilienceRequest rq;
        rq.layout = &l;
        rq.rows = 6;
        rq.cols = 6;
        rq.kind = mc::DistributionKind::HTree;
        rq.faultRate = 0.05;
        rq.rc = rc;
        rq.cfg = cfg;
        const std::vector<serve::SweepRequest> batch = {
            serve::SkewRequest{&l, &tree, kDelay, cfg},
            rq,
        };
        const serve::BatchOutcome out = svc.run(batch);
        ASSERT_EQ(out.outcomes.size(), 2u);
        EXPECT_TRUE(out.outcomes[0].skew.bitIdentical(refSkew)) << tc;
        EXPECT_TRUE(out.outcomes[1].resilience.maxCommSkew.bitIdentical(
            refRes.maxCommSkew))
            << tc;
        EXPECT_TRUE(
            out.outcomes[1].resilience.clockedFraction.bitIdentical(
                refRes.clockedFraction))
            << tc;
    }
}

} // namespace
