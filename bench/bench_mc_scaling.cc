/**
 * @file
 * PERF -- thread-scaling of the deterministic Monte-Carlo engine.
 *
 * Two sweeps at 1/2/4/8 threads: realised clock skew over a 64x64 mesh
 * H-tree (Section III wire-delay model) and fabricated 2048-stage
 * inverter-string cycle times (Section VII / Table 7). For every
 * thread count the bench checks the samples are bit-identical to the
 * 1-thread run -- the engine's core guarantee -- and records wall
 * times. Results go to stdout as tables and to BENCH_mc_scaling.json
 * for the perf trajectory; the JSON also records the host's hardware
 * concurrency, without which the speedups are uninterpretable.
 */

#include <cstdio>

#include "bench_util.hh"
#include "circuit/process.hh"
#include "clocktree/builders.hh"
#include "layout/generators.hh"
#include "mc/sweeps.hh"

namespace
{

using namespace vsync;

struct ScalingRow
{
    unsigned threads = 1;
    double millis = 0.0;
    double speedup = 1.0;
    bool deterministic = true;
    mc::McResult result;
};

/** Run @p sweep at every thread count; rows[0] is the 1-thread run. */
template <typename Sweep>
std::vector<ScalingRow>
scale(const std::vector<unsigned> &threadCounts, int reps,
      const Sweep &sweep)
{
    std::vector<ScalingRow> rows;
    for (const unsigned tc : threadCounts) {
        ScalingRow row;
        row.threads = tc;
        row.millis = bench::bestMillis(reps, [&] { row.result = sweep(tc); });
        row.deterministic =
            rows.empty() || row.result.bitIdentical(rows.front().result);
        row.speedup = rows.empty() ? 1.0 : rows.front().millis / row.millis;
        rows.push_back(std::move(row));
    }
    return rows;
}

void
emitRows(JsonWriter &json, Table &table, std::size_t trials,
         const std::vector<ScalingRow> &rows)
{
    json.key("rows").beginArray();
    for (const ScalingRow &row : rows) {
        json.beginObject()
            .keyValue("threads", row.threads)
            .keyValue("millis", row.millis)
            .keyValue("trials_per_sec",
                      1000.0 * static_cast<double>(trials) / row.millis)
            .keyValue("speedup_vs_1_thread", row.speedup)
            .keyValue("bit_identical_to_1_thread", row.deterministic)
            .keyValue("mean", row.result.mean())
            .keyValue("stddev", row.result.stddev())
            .keyValue("p99", row.result.quantile(0.99))
            .keyValue("max", row.result.max())
            .endObject();
        table.addRow({Table::integer(row.threads),
                      Table::fixed(row.millis, 1),
                      Table::fixed(row.speedup, 2),
                      row.deterministic ? "yes" : "NO",
                      Table::num(row.result.mean()),
                      Table::num(row.result.quantile(0.99))});
    }
    json.endArray();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vsync;
    const auto opts = BenchOptions::parse(argc, argv);
    const std::uint64_t seed = opts.seedSet ? opts.seed : 0x5ca1ab1eULL;

    const std::vector<unsigned> threadCounts{1, 2, 4, 8};
    const int reps = 3;

    bench::BenchJson result("mc_scaling", seed);
    JsonWriter &json = result.writer();
    json.keyValue("reps_per_point", reps);

    // --- Sweep 1: skew over a 64x64 mesh clocked by an H-tree. ------
    const int n = 64;
    const std::size_t skewTrials = 256;
    const double m = 0.05, eps = 0.005;
    const layout::Layout l = layout::meshLayout(n, n);
    const auto tree = clocktree::buildHTreeGrid(l, n, n);

    bench::headline(
        "MC scaling: realised skew over a 64x64 mesh H-tree, 256 "
        "chips per run, identical samples required at every thread "
        "count");
    Table skewTable("MC skew sweep (64x64 mesh)",
                    {"threads", "best ms", "speedup", "bit-identical",
                     "mean skew (ns)", "p99 skew (ns)"});
    const auto skewRows = scale(threadCounts, reps, [&](unsigned tc) {
        mc::McConfig cfg;
        cfg.seed = seed;
        cfg.trials = skewTrials;
        cfg.threads = tc;
        return mc::skewSweep(l, tree, core::WireDelay{m, eps}, cfg);
    });
    json.key("skew_sweep").beginObject()
        .keyValue("layout", "mesh64x64")
        .keyValue("trials", static_cast<std::uint64_t>(skewTrials))
        .keyValue("m", m)
        .keyValue("eps", eps);
    emitRows(json, skewTable, skewTrials, skewRows);
    json.endObject();
    emitTable(skewTable, opts);

    // --- Sweep 2: fabricated 2048-stage inverter strings. -----------
    const int stages = 2048;
    const std::size_t chips = 128;
    const auto process = circuit::ProcessParams::nmos1983();

    bench::headline(
        "MC scaling: minimum pipelined cycle of fabricated 2048-stage "
        "inverter strings (Table 7 workload), 128 chips per run");
    Table yieldTable("MC chip-cycle sweep (2048 stages)",
                     {"threads", "best ms", "speedup", "bit-identical",
                      "mean cycle (ns)", "p99 cycle (ns)"});
    const auto yieldRows = scale(threadCounts, reps, [&](unsigned tc) {
        mc::McConfig cfg;
        cfg.seed = seed;
        cfg.trials = chips;
        cfg.threads = tc;
        cfg.grain = 8;
        return mc::chipCycleSweep(process, stages, cfg);
    });
    json.key("yield_sweep").beginObject()
        .keyValue("stages", stages)
        .keyValue("chips", static_cast<std::uint64_t>(chips))
        .keyValue("process", process.name);
    emitRows(json, yieldTable, chips, yieldRows);
    json.endObject();
    emitTable(yieldTable, opts);

    bool allDeterministic = true;
    for (const auto &rows : {skewRows, yieldRows})
        for (const ScalingRow &row : rows)
            allDeterministic = allDeterministic && row.deterministic;
    json.keyValue("deterministic_across_thread_counts", allDeterministic)
        .keyValue("skew_speedup_at_8_threads", skewRows.back().speedup);

    std::printf(
        "\nwrote BENCH_mc_scaling.json (skew speedup at 8 threads: "
        "%.2fx on a machine with hardware_concurrency %u; samples "
        "%s across thread counts)\n",
        skewRows.back().speedup, std::thread::hardware_concurrency(),
        allDeterministic ? "bit-identical" : "DIVERGED");
    return allDeterministic ? 0 : 1;
}
