/**
 * @file
 * skew_sweep: repeated mc::skewSweep runs over H-tree meshes at two
 * sizes. 32x32 keeps the lane matrix in per-core L2 and spends most of
 * a trial filling random draws; 256x256 does not fit in L2, and there
 * the autotuner picks a narrow lane width. Kernels are compiled and
 * tuned in set-up through serve::ScenarioCache, so compile and tune
 * time land in setup_s, and every sweep fetches its kernel through the
 * cache as a serving caller would.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "bench.hh"
#include "clocktree/builders.hh"
#include "common/rng.hh"
#include "core/skew_kernel.hh"
#include "layout/generators.hh"
#include "mc/sweeps.hh"
#include "obs/metrics.hh"
#include "serve/scenario_cache.hh"

namespace perfbench
{

namespace
{

using namespace vsync;

const core::WireDelay delay{0.05, 0.005};

struct Mesh
{
    Mesh(const char *n, int s, std::size_t t, std::size_t prefix)
        : name(n), side(s), trials(t), checkPrefix(prefix)
    {
    }

    const char *name;
    int side;
    /** Trials per sweep: enough for tens of milliseconds of work. */
    std::size_t trials;
    /** Leading trials re-run through the scalar path on every sweep. */
    std::size_t checkPrefix;
    layout::Layout l;
    clocktree::ClockTree t;
    std::shared_ptr<const core::SkewKernel> kernel;
    std::size_t width = 1;
    /** The paper's bound (m + eps) * max s over communicating pairs. */
    double boundNs = 0.0;
    std::vector<double> trialsPerS;
    std::vector<double> sweepSeconds;
};

class SkewSection : public Section
{
  public:
    explicit SkewSection(const Env &e) : env(e)
    {
        for (Mesh &m : meshes)
            prepare(m);
        const Mesh &large = meshes[1];
        env.report->set("core.compile_ms", large.kernel->buildMillis(),
                        "ms");
        env.report->set("core.autotune_ms", largeTuneMs, "ms");
        env.report->set("core.block_width",
                        static_cast<double>(large.width), "count");
        env.report->set("core.block_width_small",
                        static_cast<double>(meshes[0].width), "count");
    }

    void begin() override;
    void measure(double seconds) override;
    double finish() override;
    void layers(double seconds) override;

  private:
    void prepare(Mesh &m);
    void sweep(Mesh &m, std::size_t k, obs::MetricsRegistry *reg);

    Env env;
    serve::ScenarioCache cache{serve::ScenarioCache::Config{4}};
    std::array<Mesh, 2> meshes{Mesh{"small", 32, 8192, 4},
                               Mesh{"large", 256, 192, 1}};
    double largeTuneMs = 0.0;
    /** Sweeps since begin(); sweep k draws from seed (run seed, k). */
    std::size_t sweeps = 0;
    obs::MetricsRegistry sweepMetrics;
};

void
SkewSection::prepare(Mesh &m)
{
    m.l = layout::meshLayout(m.side, m.side);
    m.t = clocktree::buildHTreeGrid(m.l, m.side, m.side);
    // The cache pre-tunes the lane width inside its counted compile
    // time, so the tune is that time minus the kernel's own build.
    const double cacheMs0 = cache.compileMillis();
    m.kernel = cache.get(m.l, m.t);
    m.width = m.kernel->blockWidth();
    if (m.side == 256)
        largeTuneMs =
            cache.compileMillis() - cacheMs0 - m.kernel->buildMillis();
    double maxS = 0.0;
    for (std::size_t i = 0; i < m.kernel->pairCount(); ++i)
        maxS = std::max(maxS, m.kernel->treeDistance(
                                  m.kernel->pairNodesA()[i],
                                  m.kernel->pairNodesB()[i]));
    m.boundNs = delay.hi() * maxS;
}

void
SkewSection::sweep(Mesh &m, std::size_t k, obs::MetricsRegistry *reg)
{
    mc::McConfig cfg;
    cfg.seed = mixSeed(env.seed, 100 + k);
    cfg.trials = m.trials;
    cfg.threads = env.width;
    cfg.metrics = reg;
    cfg.metricsName = std::string("skew_") + m.name;

    const std::uint32_t op = env.tracer->newOp();
    const Clock::time_point t0 = Clock::now();
    mc::McResult r;
    {
        auto span = env.tracer->span("mc.skew_sweep", op);
        r = mc::skewSweep(m.l, m.t, delay, cfg, cache.provider());
    }
    const double wall = secondsSince(t0);
    m.sweepSeconds.push_back(wall);
    m.trialsPerS.push_back(static_cast<double>(m.trials) / wall);

    // Output identity: a prefix through the scalar reference path must
    // match the blocked sweep bit for bit.
    bool ok = r.samples.size() == m.trials;
    std::vector<Time> scratch;
    for (std::size_t i = 0; ok && i < m.checkPrefix; ++i) {
        Rng rng = Rng::forTrial(cfg.seed, i);
        const double s = m.kernel->sampleMaxCommSkew(delay, rng, scratch);
        ok = env.report->check(s == r.samples[i],
                               std::string("skew ") + m.name +
                                   ": blocked sample differs from the "
                                   "scalar kernel");
    }
    // Section III: realised skew never exceeds (m + eps) * s.
    for (std::size_t i = 0; ok && i < r.samples.size(); ++i) {
        const double s = r.samples[i];
        ok = env.report->check(std::isfinite(s) && s >= 0.0 &&
                                   s <= m.boundNs * (1.0 + 1e-12),
                               std::string("skew ") + m.name +
                                   ": sample outside [0, (m+eps) max s]");
    }
    env.report->op(ok);

    const std::string key = std::string("skew.") + m.name;
    if (!env.report->outputs.count(key)) {
        Digest d;
        d.add(r.samples);
        char line[256];
        std::snprintf(line, sizeof(line),
                      "digest=%s trials=%zu mean_skew_ns=%.6f "
                      "max_skew_ns=%.6f bound_ns=%.6f",
                      d.hex().c_str(), m.trials, r.mean(), r.max(),
                      m.boundNs);
        env.report->outputs[key] = line;
    }
}

void
SkewSection::begin()
{
    for (Mesh &m : meshes) {
        m.trialsPerS.clear();
        m.sweepSeconds.clear();
    }
    sweeps = 0;
}

void
SkewSection::measure(double seconds)
{
    // Alternate the sizes so both see the same host conditions; the
    // first sweep of each size also feeds the exact draw counters.
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 4 || secondsSince(t0) < seconds; ++i, ++sweeps)
        sweep(meshes[sweeps % 2], sweeps,
              sweeps < 2 && env.tracer->enabled() ? &sweepMetrics
                                                  : nullptr);
}

double
SkewSection::finish()
{
    env.report->set("skew.small_trials_per_s", median(meshes[0].trialsPerS),
                    "1/s");
    env.report->set("skew.large_trials_per_s", median(meshes[1].trialsPerS),
                    "1/s");
    env.report->set("mc.sweep_ms", median(meshes[0].sweepSeconds) * 1e3,
                    "ms");
    env.report->set(
        "mc.trials",
        static_cast<double>(
            sweepMetrics.counter("mc.skew_small.trials").value() +
            sweepMetrics.counter("mc.skew_large.trials").value()),
        "count");
    env.report->set(
        "mc.rng_draws",
        static_cast<double>(
            sweepMetrics.counter("mc.skew_small.rng_draws").value() +
            sweepMetrics.counter("mc.skew_large.rng_draws").value()),
        "count");
    return median(meshes[0].sweepSeconds);
}

void
SkewSection::layers(double seconds)
{
    // Single-threaded blocks through the kernel's public blocked entry
    // points. The RNG share is timed by replaying each lane's draws in
    // the kernel's own 64-node chunks, so propagation = arrivals - fill.
    double nodeTrials = 0.0;
    double pairTrials = 0.0;
    double draws = 0.0;
    double smallWorkMs = 0.0;
    double smallWorkTrials = 0.0;
    for (const Mesh &m : meshes) {
        const core::SkewKernel &kernel = *m.kernel;
        const std::size_t w = m.width;
        const std::size_t stride = core::SkewKernel::laneStride(w);
        const std::size_t nodes = kernel.nodeCount();
        std::vector<Time> arrival(nodes * stride);
        std::vector<Time> skew(w);
        std::vector<double> chunk(64 * stride);
        std::vector<Rng> lanes;
        std::vector<Rng> replay;
        const std::uint64_t seed = mixSeed(env.seed, 300);
        const Clock::time_point t0 = Clock::now();
        for (std::uint64_t trial = 0;
             trial < 8 * w || secondsSince(t0) < seconds / 2;
             trial += w) {
            const std::uint32_t op = env.tracer->newOp();
            auto block = env.tracer->span("skew.block", op);
            lanes.clear();
            for (std::size_t j = 0; j < w; ++j)
                lanes.push_back(Rng::forTrial(seed, trial + j));
            replay = lanes;
            {
                auto s = env.tracer->span("common.rng.fill", op);
                for (std::size_t v0 = 1; v0 < nodes; v0 += 64) {
                    const std::size_t cnt = std::min<std::size_t>(
                        64, nodes - v0);
                    for (std::size_t j = 0; j < w; ++j)
                        replay[j].fillUniform(delay.lo(), delay.hi(),
                                              chunk.data() + j, cnt,
                                              stride);
                }
            }
            const Clock::time_point w0 = Clock::now();
            {
                auto s = env.tracer->span("core.arrivals_block", op);
                kernel.arrivalsBlock(delay, lanes, arrival);
            }
            {
                auto s = env.tracer->span("core.fold_block", op);
                kernel.maxCommSkewBlock(arrival, skew);
            }
            if (m.side == 32) {
                smallWorkMs += msBetween(w0, Clock::now());
                smallWorkTrials += static_cast<double>(w);
            }
            nodeTrials += static_cast<double>(nodes * w);
            pairTrials += static_cast<double>(kernel.pairCount() * w);
            draws += static_cast<double>((nodes - 1) * w);
        }
    }
    const Tracer::Totals fill = env.tracer->totals("common.rng.fill");
    const Tracer::Totals arr = env.tracer->totals("core.arrivals_block");
    const Tracer::Totals fold = env.tracer->totals("core.fold_block");
    env.report->set("common.rng.fill_ns_per_draw",
                    fill.totalMs * 1e6 / draws, "ns");
    env.report->set("common.rng.draws", draws, "count");
    env.report->set("core.arrivals_block_ns_per_node_trial",
                    arr.totalMs * 1e6 / nodeTrials, "ns");
    env.report->set("core.propagate_ns_per_node_trial",
                    (arr.totalMs - fill.totalMs) * 1e6 / nodeTrials, "ns");
    env.report->set("core.fold_block_ns_per_pair_trial",
                    fold.totalMs * 1e6 / pairTrials, "ns");
    // Scheduling overhead: the share of the measured 32x32 sweep wall
    // not explained by its trials' single-threaded arrivals + fold time
    // spread evenly over the pool.
    const auto &small = meshes[0];
    const double ideal = smallWorkMs / smallWorkTrials *
                         static_cast<double>(small.trials) / env.width;
    const double sweepMs = median(small.sweepSeconds) * 1e3;
    env.report->set("mc.sched_overhead_frac",
                    sweepMs > 0.0 ? 1.0 - ideal / sweepMs : 0.0, "frac");
}

} // namespace

std::unique_ptr<Section>
makeSkewSection(const Env &env)
{
    return std::make_unique<SkewSection>(env);
}

} // namespace perfbench
