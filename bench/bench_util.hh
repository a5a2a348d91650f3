/**
 * @file
 * Shared helpers for the experiment-reproduction binaries.
 */

#ifndef VSYNC_BENCH_BENCH_UTIL_HH
#define VSYNC_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "clocktree/clock_tree.hh"
#include "common/fit.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/skew_analysis.hh"

namespace vsync::bench
{

/**
 * A bench's machine-readable result file, BENCH_<name>.json.
 *
 * Owns the stream and the shared preamble every bench used to spell
 * out by hand: the root object, the bench name, the seed and the host
 * block (hardware concurrency and the pool's default thread count,
 * without which reported speedups are uninterpretable). The body is
 * written through writer(); the destructor closes the root object, so
 * scope the instance around all emission.
 */
class BenchJson
{
  public:
    BenchJson(const std::string &bench, std::uint64_t seed)
        : out("BENCH_" + bench + ".json"), json(out)
    {
        json.beginObject()
            .keyValue("bench", bench)
            .keyValue("seed", seed);
        json.key("host").beginObject()
            .keyValue("hardware_concurrency",
                      std::thread::hardware_concurrency())
            .keyValue("default_thread_count", defaultThreadCount())
            .endObject();
    }

    ~BenchJson() { json.endObject(); }

    BenchJson(const BenchJson &) = delete;
    BenchJson &operator=(const BenchJson &) = delete;

    /** The writer positioned inside the root object. */
    JsonWriter &writer() { return json; }

  private:
    std::ofstream out;
    JsonWriter json;
};

/** Wall-clock milliseconds of @p fn, best of @p reps runs. */
template <typename Fn>
double
bestMillis(int reps, const Fn &fn)
{
    double best = -1.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (best < 0.0 || ms < best)
            best = ms;
    }
    return best;
}

/** Per-cell clock arrival offsets from a sampled instance. */
inline std::vector<Time>
offsetsFromInstance(const core::SkewInstance &inst,
                    const clocktree::ClockTree &tree, std::size_t cells)
{
    std::vector<Time> offsets;
    offsets.reserve(cells);
    for (CellId c = 0; static_cast<std::size_t>(c) < cells; ++c)
        offsets.push_back(inst.arrival[tree.nodeOfCell(c)]);
    return offsets;
}

/** Print a one-line growth-law verdict for a measured series. */
inline void
printGrowth(const std::string &what, const std::vector<double> &ns,
            const std::vector<double> &ys)
{
    const GrowthLaw law = classifyGrowth(ns, ys);
    const PowerFit fit = fitPower(ns, ys);
    std::printf("growth[%s]: %s (power-fit exponent %.2f, R^2 %.3f)\n",
                what.c_str(), growthLawName(law).c_str(), fit.exponent,
                fit.r2);
}

/** Print a headline line above a table. */
inline void
headline(const std::string &text)
{
    std::printf("\n# %s\n", text.c_str());
}

} // namespace vsync::bench

#endif // VSYNC_BENCH_BENCH_UTIL_HH
