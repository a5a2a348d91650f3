#include "mc/montecarlo.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace vsync::mc
{

void
McConfig::validate() const
{
    VSYNC_ASSERT(trials > 0, "McConfig: trials must be positive");
    VSYNC_ASSERT(grain > 0,
                 "McConfig: grain must be positive (a zero grain "
                 "divides the schedule into nothing)");
}

double
McResult::quantile(double q) const
{
    VSYNC_ASSERT(!samples.empty(), "quantile of an empty result");
    VSYNC_ASSERT(q >= 0.0 && q <= 1.0, "quantile %g out of [0,1]", q);
    std::vector<double> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

bool
McResult::bitIdentical(const McResult &other) const
{
    if (samples.size() != other.samples.size())
        return false;
    return samples.empty() ||
           std::memcmp(samples.data(), other.samples.data(),
                       samples.size() * sizeof(double)) == 0;
}

void
reduceInTrialOrder(McResult &r)
{
    r.stat.reset();
    for (const double x : r.samples)
        r.stat.add(x);
}

void
recordSweepMetrics(obs::MetricsRegistry &reg, const std::string &name,
                   std::size_t trials, double wall_seconds,
                   std::uint64_t rng_draws)
{
    const std::string base = "mc." + name + ".";
    reg.counter(base + "trials").inc(trials);
    reg.counter(base + "rng_draws").inc(rng_draws);
    reg.gauge(base + "wall_ms").set(wall_seconds * 1e3);
    reg.gauge(base + "trials_per_s")
        .set(wall_seconds > 0.0
                 ? static_cast<double>(trials) / wall_seconds
                 : 0.0);
}

void
runChunks(ThreadPool &pool, const McConfig &cfg, const ChunkFn &chunk)
{
    cfg.validate();
    // Observability: RNG consumption is summed with a relaxed atomic
    // (integer adds commute, so the total is schedule-independent) and
    // the sweep is wall-clock timed only when a registry is attached.
    std::atomic<std::uint64_t> draws{0};
    std::chrono::steady_clock::time_point wall0;
    if (cfg.metrics)
        wall0 = std::chrono::steady_clock::now();

    pool.parallelForRange(cfg.trials, cfg.grain,
                          [&](std::size_t begin, std::size_t end) {
                              draws.fetch_add(chunk(begin, end),
                                              std::memory_order_relaxed);
                          });

    if (cfg.metrics) {
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall0)
                .count();
        recordSweepMetrics(*cfg.metrics, cfg.metricsName, cfg.trials,
                           wall, draws.load(std::memory_order_relaxed));
    }
}

void
runChunks(const McConfig &cfg, const ChunkFn &chunk)
{
    ThreadPool pool(cfg.threads);
    runChunks(pool, cfg, chunk);
}

namespace
{

/** runTrials on @p pool, or on a pool of its own when null. */
McResult
runTrialsOn(ThreadPool *pool, const McConfig &cfg, const TrialFn &fn)
{
    VSYNC_ASSERT(static_cast<bool>(fn), "null trial function");
    McResult r;
    r.samples.assign(cfg.trials, 0.0);
    const ChunkFn chunk = [&](std::size_t begin, std::size_t end) {
        std::uint64_t draws = 0;
        for (std::size_t i = begin; i < end; ++i) {
            Rng rng = Rng::forTrial(cfg.seed, i);
            r.samples[i] = fn(i, rng);
            draws += rng.draws();
        }
        return draws;
    };
    if (pool)
        runChunks(*pool, cfg, chunk);
    else
        runChunks(cfg, chunk);
    reduceInTrialOrder(r);
    return r;
}

} // namespace

McResult
runTrials(ThreadPool &pool, const McConfig &cfg, const TrialFn &fn)
{
    return runTrialsOn(&pool, cfg, fn);
}

McResult
runTrials(const McConfig &cfg, const TrialFn &fn)
{
    return runTrialsOn(nullptr, cfg, fn);
}

} // namespace vsync::mc
