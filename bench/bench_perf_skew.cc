/**
 * @file
 * PERF -- the skew sampling chain on one scenario, gated in CI.
 *
 * Three comparisons on a 32x32 mesh clocked by an H-tree, every side
 * measured in the same process so the gates are meaningful on any host
 * (including 1-CPU CI containers). Each link of the chain naive
 * sampler -> scalar kernel -> range sampler is timed against the one
 * before it:
 *
 *  - per-query: s(a, b) over every communicating pair via the naive
 *    nca (ClockTree::treeDistance, which climbs both nodes to equal
 *    depth and on to their common ancestor) versus the kernel's
 *    id-order climb over the tree path alone
 *    (SkewKernel::treeDistance), with a results-equal check;
 *  - per-sweep: 64 serial Monte-Carlo chips via the retained naive
 *    path (core::sampleSkewInstance, which re-resolves the scenario
 *    per chip) versus one SkewKernel compile plus
 *    sampleMaxCommSkew per chip, best of 3, with a bit-identity check
 *    (both draw the same uniforms from the same substreams). The
 *    kernel timing includes its compile, so the speedup is what a
 *    sweep actually sees;
 *  - batch: one 512-trial sweep through the scalar per-trial kernel
 *    (one non-inlined uniform() call per tree node) and once per
 *    lane-kernel ISA this host can dispatch through
 *    SkewKernel::sampleMaxCommSkewRange (fixed 8-lane blocks, one
 *    fused Rng::propagateUniformLanes pass per fold chunk over the
 *    compact frontier scratch). The repetitions are interleaved round
 *    by round, 7 rounds, so a burst of load on a shared host hits
 *    every path alike, and each path keeps its best round. Every ISA is
 *    checked for bit-identity against the scalar samples AND for
 *    exact draws() accounting: "scalar results, fewer passes".
 *
 * The artifact also records each kernel's compile time and frontier
 * (SkewKernel::compactRows()) at 32x32 and at 256x256; no gate reads
 * them.
 *
 * Exit status is the CI gate: nonzero when any comparison diverges
 * (bits or draw counts), when the per-sweep speedup falls below 2x,
 * when a SIMD ISA (AVX2, AVX-512) is below 4x the scalar per-trial
 * kernel, or when the scalar fallback over the compact scratch is
 * below 1.5x. Results go to stdout as tables and to
 * BENCH_perf_skew.json, whose "batch" object also names the ISA the
 * process dispatches to by default.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "clocktree/builders.hh"
#include "common/rng.hh"
#include "core/skew_kernel.hh"
#include "layout/generators.hh"
#include "mc/sweeps.hh"

namespace
{

using namespace vsync;

constexpr int meshSide = 32;
constexpr int largeSide = 256;
constexpr std::size_t sweepTrials = 64;
constexpr int reps = 3;
constexpr double minSweepSpeedup = 2.0;
constexpr std::size_t batchTrials = 512;
constexpr int batchRounds = 7;
constexpr double minSimdSpeedup = 4.0;
constexpr double minScalarSpeedup = 1.5;
const core::WireDelay delay{0.05, 0.005};

/** One timed batch path: a sweep of all trials into samples,
 *  returning the RNG draws it consumed. */
struct Path
{
    std::string name;
    std::function<std::uint64_t(std::vector<double> &samples)> run;
    double bestMs = -1.0;
    std::vector<double> samples = std::vector<double>(batchTrials, 0.0);
    std::uint64_t draws = 0;
};

/** `batchRounds` rounds, each timing every path once; keeps each
 *  path's best wall-clock milliseconds and its last samples and draw
 *  count. */
void
timeInterleaved(std::vector<Path> &paths)
{
    for (int r = 0; r < batchRounds; ++r) {
        for (Path &p : paths) {
            const double ms =
                bench::bestMillis(1, [&] { p.draws = p.run(p.samples); });
            if (p.bestMs < 0.0 || ms < p.bestMs)
                p.bestMs = ms;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsync;
    const auto opts = BenchOptions::parse(argc, argv);
    const std::uint64_t seed = opts.seedSet ? opts.seed : 0x4242ULL;

    const layout::Layout l = layout::meshLayout(meshSide, meshSide);
    const auto tree = clocktree::buildHTreeGrid(l, meshSide, meshSide);
    tree.warmCaches(); // the naive side gets its caches for free
    const core::SkewKernel kernel(l, tree);

    bench::BenchJson result("perf_skew", seed);
    JsonWriter &json = result.writer();
    json.keyValue("layout", "mesh32x32")
        .keyValue("reps_per_point", reps);

    // --- Per-query: naive depth climb vs the kernel's id-order climb.
    const std::size_t pairs = kernel.pairCount();
    const auto &pa = kernel.pairNodesA();
    const auto &pb = kernel.pairNodesB();

    double naive_sum = 0.0, kernel_sum = 0.0;
    const double query_naive_ms = bench::bestMillis(reps, [&] {
        naive_sum = 0.0;
        for (std::size_t i = 0; i < pairs; ++i)
            naive_sum += tree.treeDistance(pa[i], pb[i]);
    });
    const double query_kernel_ms = bench::bestMillis(reps, [&] {
        kernel_sum = 0.0;
        for (std::size_t i = 0; i < pairs; ++i)
            kernel_sum += kernel.treeDistance(pa[i], pb[i]);
    });
    const bool queries_equal = naive_sum == kernel_sum;
    const double query_speedup =
        query_kernel_ms > 0.0 ? query_naive_ms / query_kernel_ms : 0.0;

    bench::headline("per-query: s(a, b) over all communicating pairs");
    Table queryTable("treeDistance over comm pairs (32x32 H-tree)",
                     {"path", "best ms", "speedup", "sum s"});
    queryTable.addRow({"naive depth climb", Table::num(query_naive_ms),
                       "1.00", Table::num(naive_sum)});
    queryTable.addRow({"kernel id-order climb", Table::num(query_kernel_ms),
                       Table::num(query_speedup),
                       Table::num(kernel_sum)});
    emitTable(queryTable, opts);

    json.key("per_query").beginObject()
        .keyValue("pairs", static_cast<std::uint64_t>(pairs))
        .keyValue("naive_best_ms", query_naive_ms)
        .keyValue("kernel_best_ms", query_kernel_ms)
        .keyValue("speedup", query_speedup)
        .keyValue("results_equal", queries_equal)
        .endObject();

    // --- Per-sweep: serial naive sampler vs compile-once kernel. ----
    std::vector<double> naive_samples(sweepTrials, 0.0);
    std::vector<double> kernel_samples(sweepTrials, 0.0);

    const double sweep_naive_ms = bench::bestMillis(reps, [&] {
        for (std::size_t i = 0; i < sweepTrials; ++i) {
            Rng rng = Rng::forTrial(seed, i);
            naive_samples[i] =
                core::sampleSkewInstance(l, tree, delay, rng)
                    .maxCommSkew;
        }
    });
    const double sweep_kernel_ms = bench::bestMillis(reps, [&] {
        // The compile is inside the timed region: the speedup below is
        // end-to-end for a 64-trial sweep, not just the steady state.
        const core::SkewKernel fresh(l, tree);
        std::vector<Time> scratch;
        for (std::size_t i = 0; i < sweepTrials; ++i) {
            Rng rng = Rng::forTrial(seed, i);
            kernel_samples[i] =
                fresh.sampleMaxCommSkew(delay, rng, scratch);
        }
    });
    const bool sweep_identical = naive_samples == kernel_samples;
    const double sweep_speedup =
        sweep_kernel_ms > 0.0 ? sweep_naive_ms / sweep_kernel_ms : 0.0;

    bench::headline(
        "per-sweep: 64 serial Monte-Carlo chips, naive re-resolve vs "
        "one kernel compile");
    Table sweepTable("serial 64-chip skew sweep (32x32 H-tree)",
                     {"path", "best ms", "speedup", "bit-identical"});
    sweepTable.addRow({"naive sampleSkewInstance",
                       Table::num(sweep_naive_ms), "1.00", "-"});
    sweepTable.addRow({"kernel (compile + sweep)",
                       Table::num(sweep_kernel_ms),
                       Table::num(sweep_speedup),
                       sweep_identical ? "yes" : "NO"});
    emitTable(sweepTable, opts);

    json.key("per_sweep").beginObject()
        .keyValue("trials", static_cast<std::uint64_t>(sweepTrials))
        .keyValue("naive_best_ms", sweep_naive_ms)
        .keyValue("kernel_best_ms", sweep_kernel_ms)
        .keyValue("speedup", sweep_speedup)
        .keyValue("bit_identical", sweep_identical)
        .endObject();

    // --- Batch: scalar per-trial kernel, then the range entry point
    // on every ISA the host can run. -------------------------------
    std::vector<Path> paths;
    paths.push_back({"scalar per-trial", [&](std::vector<double> &out) {
                         std::vector<Time> scratch;
                         std::uint64_t draws = 0;
                         for (std::size_t i = 0; i < batchTrials; ++i) {
                             Rng rng = Rng::forTrial(seed, i);
                             out[i] = kernel.sampleMaxCommSkew(delay, rng,
                                                               scratch);
                             draws += rng.draws();
                         }
                         return draws;
                     }});
    std::vector<RngIsa> isas;
    for (const RngIsa isa :
         {RngIsa::Scalar, RngIsa::Avx2, RngIsa::Avx512}) {
        if (!rngIsaSupported(isa))
            continue;
        isas.push_back(isa);
        paths.push_back({std::string("W=8 ") + rngIsaName(isa),
                         [&kernel, seed, isa](std::vector<double> &out) {
                             std::vector<Time> scratch;
                             return kernel.sampleMaxCommSkewRange(
                                 delay, seed, 0, out, scratch, isa);
                         }});
    }
    timeInterleaved(paths);
    const Path &ref = paths.front();

    bench::headline("batch: fixed 8-lane 512-trial sweep vs scalar "
                    "per-trial kernel (32x32 H-tree)");
    Table batchTable("sampleMaxCommSkewRange per lane-kernel ISA",
                     {"path", "best ms", "speedup", "gate",
                      "bit-identical", "draws-equal"});
    batchTable.addRow({ref.name, Table::num(ref.bestMs), "1.00", "-",
                       "-", "-"});

    json.key("batch").beginObject()
        .keyValue("trials", static_cast<std::uint64_t>(batchTrials))
        .keyValue("rounds", batchRounds)
        .keyValue("block_width",
                  static_cast<std::uint64_t>(kernel.blockWidth()))
        .keyValue("dispatched_isa", rngIsaName(rngIsaBest()))
        .keyValue("scalar_best_ms", ref.bestMs);
    json.key("isas").beginArray();

    bool batch_ok = true;
    for (std::size_t k = 0; k < isas.size(); ++k) {
        const RngIsa isa = isas[k];
        const Path &p = paths[k + 1];
        const bool identical = p.samples == ref.samples;
        const bool draws_equal = p.draws == ref.draws;
        const double speedup = p.bestMs > 0.0 ? ref.bestMs / p.bestMs : 0.0;
        const double gate =
            isa == RngIsa::Scalar ? minScalarSpeedup : minSimdSpeedup;
        const bool passed = identical && draws_equal && speedup >= gate;
        batch_ok = batch_ok && passed;
        batchTable.addRow({p.name, Table::num(p.bestMs),
                           Table::num(speedup), Table::num(gate),
                           identical ? "yes" : "NO",
                           draws_equal ? "yes" : "NO"});
        json.beginObject()
            .keyValue("isa", rngIsaName(isa))
            .keyValue("best_ms", p.bestMs)
            .keyValue("speedup", speedup)
            .keyValue("min_speedup", gate)
            .keyValue("bit_identical", identical)
            .keyValue("draws_equal", draws_equal)
            .keyValue("passed", passed)
            .endObject();
        std::printf("%s: %.2fx vs %.1fx gate, results %s\n",
                    rngIsaName(isa), speedup, gate,
                    identical && draws_equal ? "identical" : "DIVERGED");
    }
    json.endArray();
    json.keyValue("passed", batch_ok).endObject();
    emitTable(batchTable, opts);

    // --- Kernel stats (the obs gauges, inlined for the artifact), and
    // the compile and frontier of a 256x256 H-tree beside them. ------
    const layout::Layout bigMesh =
        layout::meshLayout(largeSide, largeSide);
    const core::SkewKernel large(
        bigMesh, clocktree::buildHTreeGrid(bigMesh, largeSide, largeSide));
    Table kernelTable("compiled H-tree kernels",
                      {"json key", "nodes", "compact rows", "build ms"});
    const std::pair<const char *, const core::SkewKernel *> kernels[] = {
        {"kernel", &kernel}, {"kernel_256x256", &large}};
    for (const auto &[key, k] : kernels) {
        kernelTable.addRow({key, std::to_string(k->nodeCount()),
                            std::to_string(k->compactRows()),
                            Table::num(k->buildMillis())});
        json.key(key)
            .beginObject()
            .keyValue("nodes", static_cast<std::uint64_t>(k->nodeCount()))
            .keyValue("pairs", static_cast<std::uint64_t>(k->pairCount()))
            .keyValue("compact_rows",
                      static_cast<std::uint64_t>(k->compactRows()))
            .keyValue("build_ms", k->buildMillis())
            .keyValue("queries_served", k->queriesServed())
            .keyValue("arrival_batches", k->arrivalBatches())
            .endObject();
    }
    emitTable(kernelTable, opts);

    const bool sweep_ok = queries_equal && sweep_identical &&
                          sweep_speedup >= minSweepSpeedup;
    const bool gate_ok = sweep_ok && batch_ok;
    json.key("gate").beginObject()
        .keyValue("min_sweep_speedup", minSweepSpeedup)
        .keyValue("min_simd_speedup", minSimdSpeedup)
        .keyValue("min_scalar_speedup", minScalarSpeedup)
        .keyValue("sweep_passed", sweep_ok)
        .keyValue("batch_passed", batch_ok)
        .keyValue("passed", gate_ok)
        .endObject();

    std::printf("\nwrote BENCH_perf_skew.json (per-query %.2fx, "
                "per-sweep %.2fx vs %.1fx gate; results %s; batch gate "
                "%s, dispatched ISA %s)\n",
                query_speedup, sweep_speedup, minSweepSpeedup,
                queries_equal && sweep_identical ? "identical"
                                                 : "DIVERGED",
                batch_ok ? "passed" : "FAILED", rngIsaName(rngIsaBest()));
    return gate_ok ? 0 : 1;
}
