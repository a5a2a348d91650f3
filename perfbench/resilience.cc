/**
 * @file
 * resilience_curve: mc::degradationCurve for the buffered H-tree and
 * the TRIX grid (arXiv:2010.01415) on a 16x16 mesh at fault rates
 * {0, 0.005, 0.02, 0.05}. Each trial builds a fresh desim world in the
 * fault module, which is nearly all of the work; RNG fill is
 * negligible, and degradationCurve builds one ThreadPool per rate.
 */

#include <array>
#include <cmath>
#include <cstdio>

#include "bench.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "layout/generators.hh"
#include "mc/resilience.hh"
#include "obs/metrics.hh"

namespace perfbench
{

namespace
{

using namespace vsync;

constexpr int side = 16;
/** Trials per rate point of one curve. */
constexpr std::size_t trialsPerRate = 64;

struct Distribution
{
    mc::DistributionKind kind;
    const char *name;
    /** One compiled scenario per rate: the prefix-check reference. */
    std::vector<mc::ResilienceScenario> scenarios;
    std::vector<double> trialsPerS;
    std::vector<double> curveSeconds;
};

class ResilienceSection : public Section
{
  public:
    explicit ResilienceSection(const Env &e)
        : env(e), l(layout::meshLayout(side, side))
    {
        for (Distribution &d : dists)
            for (const double rate : rates)
                d.scenarios.push_back(mc::compileResilienceScenario(
                    l, side, side, d.kind, rate, rc,
                    core::directCompile()));
    }

    void begin() override;
    void measure(double seconds) override;
    double finish() override;
    void layers(double seconds) override;

  private:
    void curve(Distribution &d, std::size_t k, obs::MetricsRegistry *reg);

    Env env;
    layout::Layout l;
    const std::vector<double> rates{0.0, 0.005, 0.02, 0.05};
    const mc::ResilienceConfig rc{};
    std::array<Distribution, 2> dists{
        Distribution{mc::DistributionKind::HTree, "htree", {}, {}, {}},
        Distribution{mc::DistributionKind::TrixGrid, "trix", {}, {}, {}}};
    /** Curves since begin(); curve k draws from seed (run seed, k). */
    std::size_t curves = 0;
    obs::MetricsRegistry faultMetrics;
};

void
ResilienceSection::curve(Distribution &d, std::size_t k,
                         obs::MetricsRegistry *reg)
{
    mc::McConfig cfg;
    cfg.seed = mixSeed(env.seed, 200 + k);
    cfg.trials = trialsPerRate;
    cfg.threads = env.width;
    cfg.metrics = reg;

    const std::uint32_t op = env.tracer->newOp();
    const Clock::time_point t0 = Clock::now();
    std::vector<mc::ResiliencePoint> points;
    {
        auto span = env.tracer->span("mc.degradation_curve", op);
        points = mc::degradationCurve(l, side, side, d.kind, rates, rc, cfg);
    }
    const double wall = secondsSince(t0);
    d.curveSeconds.push_back(wall);
    d.trialsPerS.push_back(
        static_cast<double>(rates.size() * trialsPerRate) / wall);

    const std::string what = std::string("resilience ") + d.name + ": ";
    bool ok = env.report->check(points.size() == rates.size(),
                                what + "curve has the wrong point count");
    for (std::size_t r = 0; ok && r < points.size(); ++r) {
        const mc::ResiliencePoint &p = points[r];
        ok = env.report->check(
            p.clockedFraction.samples.size() == trialsPerRate &&
                p.maxCommSkew.samples.size() == trialsPerRate,
            what + "point has the wrong sample count");
        for (std::size_t i = 0; ok && i < trialsPerRate; ++i) {
            const double c = p.clockedFraction.samples[i];
            const double s = p.maxCommSkew.samples[i];
            ok = env.report->check(c >= 0.0 && c <= 1.0,
                                   what + "clocked fraction outside [0,1]") &&
                 env.report->check(std::isfinite(s) && s >= 0.0,
                                   what + "skew not finite and >= 0") &&
                 env.report->check(rates[r] > 0.0 || c == 1.0,
                                   what + "rate-0 trial not fully clocked");
        }
        // The blocked sweep must match the scenario's per-trial path.
        if (ok) {
            const fault::DistributionOutcome ref =
                d.scenarios[r].runTrial(cfg.seed, 0);
            ok = env.report->check(
                ref.maxCommSkew == p.maxCommSkew.samples[0] &&
                    ref.clockedFraction == p.clockedFraction.samples[0],
                what + "sweep differs from ResilienceScenario::runTrial");
        }
    }
    env.report->op(ok);

    const std::string key = std::string("resilience.") + d.name;
    if (ok && !env.report->outputs.count(key)) {
        Digest dg;
        double clocked = 0.0;
        for (const mc::ResiliencePoint &p : points) {
            dg.add(p.maxCommSkew.samples);
            dg.add(p.clockedFraction.samples);
            clocked += p.clockedFraction.mean();
        }
        char line[256];
        std::snprintf(line, sizeof(line),
                      "digest=%s trials=%zu mean_clocked_fraction=%.6f "
                      "mean_skew_ns_rate0=%.6f",
                      dg.hex().c_str(), rates.size() * trialsPerRate,
                      clocked / static_cast<double>(points.size()),
                      points[0].maxCommSkew.mean());
        env.report->outputs[key] = line;
    }
}

void
ResilienceSection::begin()
{
    for (Distribution &d : dists) {
        d.trialsPerS.clear();
        d.curveSeconds.clear();
    }
    curves = 0;
}

void
ResilienceSection::measure(double seconds)
{
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 2 || secondsSince(t0) < seconds; ++i, ++curves)
        curve(dists[curves % 2], curves,
              curves < 2 && env.tracer->enabled() ? &faultMetrics
                                                  : nullptr);
}

double
ResilienceSection::finish()
{
    env.report->set("resilience.htree_trials_per_s",
                    median(dists[0].trialsPerS), "1/s");
    env.report->set("resilience.trix_trials_per_s",
                    median(dists[1].trialsPerS), "1/s");
    // Injected faults per kind over the first curve of each scheme.
    const std::array<std::pair<fault::FaultKind, const char *>, 4> kinds{{
        {fault::FaultKind::DeadBuffer, "fault.armed.dead_buffer"},
        {fault::FaultKind::DelayDrift, "fault.armed.delay_drift"},
        {fault::FaultKind::StuckAtNet, "fault.armed.stuck_at_net"},
        {fault::FaultKind::TransientGlitch, "fault.armed.transient_glitch"},
    }};
    for (const auto &[kind, name] : kinds)
        env.report->set(name,
                        static_cast<double>(
                            faultMetrics
                                .counter("mc.resilience.faults." +
                                         fault::faultKindName(kind))
                                .value()),
                        "count");
    return median(dists[0].curveSeconds);
}

void
ResilienceSection::layers(double seconds)
{
    const std::uint64_t seed = mixSeed(env.seed, 400);
    for (int i = 0; i < 16; ++i) {
        auto span = env.tracer->span("common.pool.spawn", env.tracer->newOp());
        ThreadPool pool(env.width);
    }
    for (const Distribution &d : dists)
        for (const double rate : rates) {
            auto span = env.tracer->span("mc.resilience.compile_scenario",
                                         env.tracer->newOp());
            mc::compileResilienceScenario(l, side, side, d.kind, rate, rc,
                                          core::directCompile());
        }

    // Per-trial layer split: plan draw, desim world build + pulse, and
    // the pair fold, one trial at a time over every rate.
    std::vector<Time> arrival;
    std::array<core::ArrivalSkew, 1> folded;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t trial = 0;
         trial < 16 || secondsSince(t0) < 0.7 * seconds; ++trial) {
        const Distribution &d = dists[trial % 2];
        const mc::ResilienceScenario &sc =
            d.scenarios[(trial / 2) % rates.size()];
        const std::uint32_t op = env.tracer->newOp();
        auto span = env.tracer->span("resilience.trial", op);
        fault::FaultPlan plan;
        {
            auto s = env.tracer->span("fault.plan", op);
            plan = fault::FaultPlan::forTrial(sc.universe, sc.rates, seed,
                                              trial);
        }
        Rng delayRng = Rng::forTrial(seed, trial).deriveStream(2);
        if (d.kind == mc::DistributionKind::TrixGrid) {
            auto s = env.tracer->span("fault.grid_sim", op);
            fault::simulateGridArrivalsUnderFaults(
                *sc.kernel, side, side,
                [&](int, int, int) {
                    return rc.bufferDelay +
                           delayRng.uniform(rc.delay.lo(), rc.delay.hi());
                },
                plan, arrival);
        } else {
            auto s = env.tracer->span("fault.tree_sim", op);
            fault::simulateTreeArrivalsUnderFaults(
                *sc.kernel, sc.btree,
                [&](const clocktree::BufferedSite &site, std::size_t) {
                    const double unit =
                        delayRng.uniform(rc.delay.lo(), rc.delay.hi());
                    return desim::EdgeDelays::same(
                        site.wireFromParent * unit +
                        (site.isBuffer ? rc.bufferDelay : 0.0));
                },
                plan, arrival);
        }
        auto s = env.tracer->span("core.arrival_skew_block", op);
        sc.kernel->arrivalSkewBlock(arrival, folded);
    }

    // Whole blocks through the public blocked trial entry point.
    std::vector<Time> scratch;
    const Clock::time_point t1 = Clock::now();
    for (std::uint64_t block = 0;
         block < 4 || secondsSince(t1) < 0.3 * seconds; ++block) {
        const mc::ResilienceScenario &sc =
            dists[block % 2].scenarios[(block / 2) % rates.size()];
        const std::size_t w = sc.kernel->blockWidth();
        std::vector<double> skew(w), clocked(w), faults(w);
        auto span = env.tracer->span("mc.resilience.trial_block",
                                     env.tracer->newOp());
        sc.runTrialBlock(seed, block * w, w, skew, clocked, faults, nullptr,
                         scratch);
    }

    const auto per = [&](const char *name, double scale) {
        const Tracer::Totals t = env.tracer->totals(name);
        return t.count ? t.totalMs * scale / static_cast<double>(t.count)
                       : 0.0;
    };
    env.report->set("common.pool.spawn_ms", per("common.pool.spawn", 1.0),
                    "ms");
    env.report->set("mc.resilience.compile_scenario_ms",
                    per("mc.resilience.compile_scenario", 1.0), "ms");
    env.report->set("mc.resilience.trial_block_us",
                    per("mc.resilience.trial_block", 1e3), "us");
    env.report->set("fault.plan_us", per("fault.plan", 1e3), "us");
    env.report->set("fault.tree_sim_us", per("fault.tree_sim", 1e3), "us");
    env.report->set("fault.grid_sim_us", per("fault.grid_sim", 1e3), "us");
    env.report->set("core.arrival_skew_block_us",
                    per("core.arrival_skew_block", 1e3), "us");
}

} // namespace

std::unique_ptr<Section>
makeResilienceSection(const Env &env)
{
    return std::make_unique<ResilienceSection>(env);
}

} // namespace perfbench
