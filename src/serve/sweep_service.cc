#include "serve/sweep_service.hh"

#include <atomic>
#include <chrono>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/probes.hh"
#include "serve/work_unit.hh"

namespace vsync::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/** A request's precompiled shared state. */
struct Compiled
{
    /** False when cancellation pre-empted the compile. */
    bool ready = false;
    /** Skew requests: the cached kernel. */
    std::shared_ptr<const core::SkewKernel> kernel;
    /** Resilience requests: the full scenario. */
    mc::ResilienceScenario scenario;
};

const mc::McConfig &
configOf(const SweepRequest &rq)
{
    if (const SkewRequest *s = std::get_if<SkewRequest>(&rq))
        return s->cfg;
    return std::get<ResilienceRequest>(rq).cfg;
}

bool
isSkewRequest(const SweepRequest &rq)
{
    return std::holds_alternative<SkewRequest>(rq);
}

} // namespace

SweepService::SweepService(ServiceConfig config)
    : cfg(config),
      kernels(ScenarioCache::Config{config.cacheCapacity, config.metrics}),
      pool(config.threads)
{
    if (cfg.metrics) {
        poolMetrics = std::make_unique<obs::PoolMetricsObserver>(
            *cfg.metrics, "serve.pool.");
        pool.setObserver(poolMetrics.get());
    }
}

SweepService::~SweepService() = default;

void
SweepService::cancel()
{
    userCancel.cancel();
}

BatchOutcome
SweepService::run(const std::vector<SweepRequest> &batch,
                  const BatchOptions &opts)
{
    std::lock_guard<std::mutex> runLock(runMutex);
    userCancel.reset();
    stopToken.reset();
    const Clock::time_point t0 = Clock::now();
    const bool hasDeadline = opts.deadlineSeconds < infinity;
    // A zero/negative budget is expired on arrival: fail fast. The
    // explicit flag (rather than trusting Clock::now() > t0 on the
    // first phase-1 check) guarantees no compile and no first chunk.
    const bool expiredOnArrival =
        hasDeadline && opts.deadlineSeconds <= 0.0;
    const Clock::time_point deadline =
        hasDeadline ? t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   opts.deadlineSeconds))
                    : Clock::time_point::max();

    const auto externallyCancelled = [&]() {
        return userCancel.cancelled() ||
               (opts.cancel && opts.cancel->cancelled());
    };

    BatchOutcome out;
    out.outcomes.resize(batch.size());
    std::atomic<bool> deadlineHit{false};

    // Phase 1 -- compile. Kernels come through the cache, so repeated
    // scenarios within the batch (and across batches) compile once.
    // Cancellation and the deadline are honoured between compiles; a
    // request whose compile was skipped contributes no work units.
    std::vector<Compiled> compiled(batch.size());
    for (std::size_t r = 0; r < batch.size(); ++r) {
        configOf(batch[r]).validate();
        if (externallyCancelled())
            continue;
        if (expiredOnArrival ||
            (hasDeadline && Clock::now() >= deadline)) {
            deadlineHit.store(true, std::memory_order_relaxed);
            continue;
        }
        if (const SkewRequest *s = std::get_if<SkewRequest>(&batch[r])) {
            VSYNC_ASSERT(s->layout && s->tree,
                         "skew request %zu lacks layout or tree", r);
            compiled[r].kernel = kernels.get(*s->layout, *s->tree);
            compiled[r].ready = true;
        } else {
            const ResilienceRequest &q =
                std::get<ResilienceRequest>(batch[r]);
            VSYNC_ASSERT(q.layout,
                         "resilience request %zu lacks a layout", r);
            compiled[r].scenario = mc::compileResilienceScenario(
                *q.layout, q.rows, q.cols, q.kind, q.faultRate, q.rc,
                kernels.provider());
            compiled[r].ready = true;
        }
    }

    // Phase 2 -- shard every request's trials into grain-sized units
    // (the public appendWorkUnits seam, so the distributed coordinator
    // shards identically) and preallocate the per-trial slots they
    // write.
    std::vector<WorkUnit> units;
    for (std::size_t r = 0; r < batch.size(); ++r) {
        const mc::McConfig &mcc = configOf(batch[r]);
        const ResilienceRequest *q =
            std::get_if<ResilienceRequest>(&batch[r]);
        prepareOutcome(!q, mcc.trials, q ? q->faultRate : 0.0,
                       out.outcomes[r]);
        if (compiled[r].ready)
            appendWorkUnits(r, mcc.trials, mcc.grain, units);
    }

    // Phase 3 -- run the units of all requests interleaved on the one
    // pool. Each unit is written by exactly one worker and the done
    // flags are read only after the pool joins, so plain bytes suffice.
    std::vector<std::uint8_t> unitDone(units.size(), 0);
    pool.parallelForRange(
        units.size(), 1,
        [&](std::size_t ub, std::size_t ue) {
            std::vector<Time> scratch; // lane scratch, reused across units
            for (std::size_t u = ub; u < ue; ++u) {
                if (externallyCancelled())
                    stopToken.cancel();
                else if (hasDeadline && Clock::now() >= deadline) {
                    deadlineHit.store(true, std::memory_order_relaxed);
                    stopToken.cancel();
                }
                if (stopToken.cancelled())
                    return;
                const WorkUnit &w = units[u];
                const Compiled &c = compiled[w.request];
                const mc::McConfig &mcc = configOf(batch[w.request]);
                RequestOutcome &o = out.outcomes[w.request];
                const std::size_t n = w.end - w.begin;
                // The substream index is global: a shard of a sharded
                // parent request (trialOffset != 0) draws the same
                // streams the parent would, and the range entry points
                // restart their lane blocks at every unit, so
                // shard/grain choices cannot change a bit.
                if (const SkewRequest *s =
                        std::get_if<SkewRequest>(&batch[w.request])) {
                    c.kernel->sampleMaxCommSkewRange(
                        s->delay, mcc.seed, s->trialOffset + w.begin,
                        {o.skew.samples.data() + w.begin, n}, scratch);
                } else {
                    const ResilienceRequest &q =
                        std::get<ResilienceRequest>(batch[w.request]);
                    c.scenario.runTrialRange(
                        mcc.seed, q.trialOffset + w.begin,
                        {o.resilience.maxCommSkew.samples.data() + w.begin,
                         n},
                        {o.resilience.clockedFraction.samples.data() +
                             w.begin,
                         n},
                        {o.faultSamples.data() + w.begin, n}, nullptr,
                        scratch);
                }
                unitDone[u] = 1;
            }
        },
        &stopToken);

    // Phase 4 -- reduce through the public fold seam: Complete
    // requests reduce exactly as the mc:: sweeps do (trial order over
    // all samples: bit-identical), Partial requests fold only the
    // trials that ran, still in trial order, and report which ones
    // those were. The distributed coordinator calls the same
    // foldOutcomeInTrialOrder on remotely computed samples.
    std::vector<std::uint8_t> trialDone;
    std::size_t totalDone = 0;
    for (std::size_t r = 0; r < batch.size(); ++r) {
        const mc::McConfig &mcc = configOf(batch[r]);
        RequestOutcome &o = out.outcomes[r];
        trialDone.assign(mcc.trials, 0);
        for (std::size_t u = 0; u < units.size(); ++u) {
            if (!unitDone[u] || units[u].request != r)
                continue;
            for (std::size_t i = units[u].begin; i < units[u].end; ++i)
                trialDone[i] = 1;
        }
        foldOutcomeInTrialOrder(isSkewRequest(batch[r]), trialDone, o);
        totalDone += o.trialsDone;
    }

    out.deadlineExpired = deadlineHit.load(std::memory_order_relaxed);
    out.cancelled = externallyCancelled();
    out.wallMs = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           t0)
                     .count();

    if (cfg.metrics) {
        cfg.metrics->counter("serve.batch.requests").inc(batch.size());
        cfg.metrics->counter("serve.batch.trials_done").inc(totalDone);
        if (out.cancelled)
            cfg.metrics->counter("serve.batch.cancelled").inc();
        if (out.deadlineExpired)
            cfg.metrics->counter("serve.batch.deadline_expired").inc();
        cfg.metrics->gauge("serve.batch.wall_ms").add(out.wallMs);
    }
    return out;
}

} // namespace vsync::serve
