/**
 * @file
 * Deterministic parallel Monte-Carlo engine.
 *
 * The engine runs N independent trials of a stochastic experiment and
 * reduces them to summary statistics. Determinism contract:
 *
 *  - trial i draws randomness only from Rng::forTrial(cfg.seed, i),
 *  - trial i writes its observable only to samples[i],
 *  - the reduction folds samples in trial order after all trials done,
 *
 * so the full result — every sample bit, every statistic — is a pure
 * function of (seed, trials, the trial function) and is identical for
 * any thread count and any dynamic schedule. Thread count changes only
 * wall-clock time.
 */

#ifndef VSYNC_MC_MONTECARLO_HH
#define VSYNC_MC_MONTECARLO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace vsync::obs
{
class MetricsRegistry;
} // namespace vsync::obs

namespace vsync::mc
{

/** Parameters shared by every Monte-Carlo sweep. */
struct McConfig
{
    /** Experiment seed; trial i uses Rng::forTrial(seed, i). */
    std::uint64_t seed = 0x5eed5eed5eed5eedULL;

    /** Number of independent trials. */
    std::size_t trials = 1024;

    /** Compute threads (caller included); 0 = defaultThreadCount(). */
    unsigned threads = 0;

    /** Trials per scheduling chunk (amortises per-chunk scratch). */
    std::size_t grain = 16;

    /**
     * Optional metrics registry. When set, the sweep records under
     * "mc.<metricsName>.": trials and rng_draws counters plus wall_ms
     * and trials_per_s gauges. The per-trial hot path pays one branch;
     * rng_draws is exact because every distribution funnels through
     * Rng::next().
     */
    obs::MetricsRegistry *metrics = nullptr;

    /** Metric name component identifying this sweep. */
    std::string metricsName = "sweep";

    /**
     * Fatal on configurations that would silently degenerate: zero
     * trials (empty samples, NaN statistics downstream) or zero grain
     * (divides the schedule into nothing; parallelForRange would spin
     * forever handing out empty chunks). Called by runChunks before
     * any work is scheduled.
     */
    void validate() const;
};

/** One trial: map (trial index, its private rng) to one observable. */
using TrialFn = std::function<double(std::uint64_t trial, Rng &rng)>;

/** Reduced result of a sweep. */
struct McResult
{
    /** Per-trial observables, indexed by trial. */
    std::vector<double> samples;

    /** Mean/stddev/min/max over samples, folded in trial order. */
    RunningStat stat;

    /** Quantile by linear interpolation (sorts a copy). @pre samples
     *  non-empty and 0 <= q <= 1. */
    double quantile(double q) const;

    double mean() const { return stat.mean(); }
    double stddev() const { return stat.stddev(); }
    double min() const { return stat.min(); }
    double max() const { return stat.max(); }

    /** True when every sample is bitwise equal to @p other's. */
    bool bitIdentical(const McResult &other) const;
};

/** Fold a filled samples vector into @p r.stat (trial order). */
void reduceInTrialOrder(McResult &r);

/**
 * Record one sweep's throughput metrics into @p reg under
 * "mc.<name>.": trials / rng_draws counters, wall_ms / trials_per_s
 * gauges. runChunks calls it for every sweep that has a registry.
 */
void recordSweepMetrics(obs::MetricsRegistry &reg, const std::string &name,
                        std::size_t trials, double wall_seconds,
                        std::uint64_t rng_draws);

/**
 * One chunk of a sweep: compute trials [begin, end) into the sweep's
 * per-trial slots and return the RNG draws they consumed.
 */
using ChunkFn =
    std::function<std::uint64_t(std::size_t begin, std::size_t end)>;

/**
 * The sweep loop every mc:: sweep runs on: validates @p cfg, fans
 * [0, cfg.trials) over @p pool in cfg.grain-sized chunks and, when
 * cfg.metrics is set, times the fan-out and records it with
 * recordSweepMetrics. The draw count is a sum of per-chunk integers,
 * so it is exact and schedule-independent.
 */
void runChunks(ThreadPool &pool, const McConfig &cfg, const ChunkFn &chunk);

/** As above on a pool of cfg.threads threads owned by the call: the
 *  path every single-rate sweep takes. */
void runChunks(const McConfig &cfg, const ChunkFn &chunk);

/** Run cfg.trials trials of @p fn on @p pool. */
[[nodiscard]] McResult runTrials(ThreadPool &pool, const McConfig &cfg,
                                 const TrialFn &fn);

/** Convenience overload on a pool owned by the call (runChunks). */
[[nodiscard]] McResult runTrials(const McConfig &cfg, const TrialFn &fn);

} // namespace vsync::mc

#endif // VSYNC_MC_MONTECARLO_HH
