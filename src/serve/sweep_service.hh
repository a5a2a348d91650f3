/**
 * @file
 * Batched sweep serving: shard, cache, cancel.
 *
 * A SweepService is the front door for running many Monte-Carlo sweep
 * requests as one unit of work. It owns one ThreadPool and one
 * ScenarioCache; a batch of requests (skew sweeps, resilience points --
 * tree or TRIX grid) is split into fixed-size work units of trials and
 * the units of every request are sharded across the pool together, so
 * a batch of small sweeps saturates the machine the way one big sweep
 * does. Kernels are fetched through the cache: repeated scenarios
 * across requests or batches compile once.
 *
 * Determinism: a request's trials are computed exactly as the
 * corresponding mc:: entry point computes them -- the same range entry
 * point (core::SkewKernel::sampleMaxCommSkewRange or
 * mc::ResilienceScenario::runTrialRange) per work unit, the same
 * Rng::forTrial streams, reduction in trial order -- so a
 * Complete outcome is bit-identical to mc::skewSweep /
 * mc::resilienceAtRate at any pool width.
 *
 * Cancellation and deadlines are cooperative with work-unit
 * granularity. A cancelled or past-deadline batch stops handing out
 * units; whatever finished is returned with status Partial, the done
 * trial ranges identified -- partial results are flagged, never
 * silently passed off as complete.
 */

#ifndef VSYNC_SERVE_SWEEP_SERVICE_HH
#define VSYNC_SERVE_SWEEP_SERVICE_HH

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "common/parallel.hh"
#include "common/types.hh"
#include "core/wire_delay.hh"
#include "mc/montecarlo.hh"
#include "mc/resilience.hh"
#include "serve/scenario_cache.hh"

namespace vsync::obs
{
class PoolMetricsObserver;
} // namespace vsync::obs

namespace vsync::serve
{

/**
 * One skew sweep: mc::skewSweep(*layout, *tree, delay, cfg). The
 * layout and tree are borrowed and must outlive the run() call.
 * cfg.threads and cfg.metrics are ignored -- the service's pool and
 * registry apply; cfg.seed/trials/grain mean what they mean in mc::.
 */
struct SkewRequest
{
    const layout::Layout *layout = nullptr;
    const clocktree::ClockTree *tree = nullptr;
    core::WireDelay delay{0.05, 0.005};
    mc::McConfig cfg;
    /**
     * Global index of the request's first trial: local trial i draws
     * from Rng::forTrial(cfg.seed, trialOffset + i). 0 for ordinary
     * requests; a distributed shard covering trials [b, e) of a
     * parent request runs with trialOffset = b and cfg.trials = e-b,
     * which is what makes the shard's samples bit-identical to the
     * parent's slice no matter which worker computes it.
     */
    std::size_t trialOffset = 0;
};

/**
 * One resilience point: mc::resilienceAtRate(*layout, rows, cols,
 * kind, faultRate, rc, cfg). Borrowing and cfg caveats as above.
 */
struct ResilienceRequest
{
    const layout::Layout *layout = nullptr;
    int rows = 0;
    int cols = 0;
    mc::DistributionKind kind = mc::DistributionKind::HTree;
    double faultRate = 0.0;
    mc::ResilienceConfig rc;
    mc::McConfig cfg;
    /** First-trial global index; see SkewRequest::trialOffset. */
    std::size_t trialOffset = 0;
};

/** A batch element. */
using SweepRequest = std::variant<SkewRequest, ResilienceRequest>;

/** Whether a request's trials all ran. */
enum class RequestStatus
{
    /** Every trial ran; results bit-identical to the mc:: sweep. */
    Complete,
    /**
     * Cancelled or past deadline before every trial ran. Statistics
     * cover exactly the trialsDone completed trials (folded in trial
     * order); samples of missing trials are zero-filled and
     * trialDone marks which indices are real.
     */
    Partial,
};

/** Per-request result. */
struct RequestOutcome
{
    RequestStatus status = RequestStatus::Complete;
    /** Trials that actually ran. */
    std::size_t trialsDone = 0;
    /** Trials the request asked for. */
    std::size_t trialsRequested = 0;
    /** trialDone[i]: trial i ran (empty when Complete -- all did). */
    std::vector<std::uint8_t> trialDone;
    /** Skew requests: the sweep result. */
    mc::McResult skew;
    /** Resilience requests: the degradation point. */
    mc::ResiliencePoint resilience;
    /**
     * Resilience requests: faults injected per trial (indexed like
     * the sample vectors). Kept alongside the reduced meanFaults so a
     * distributed fold can recombine shards exactly -- integer counts
     * sum exactly in doubles, per-shard *means* do not.
     */
    std::vector<double> faultSamples;
};

/** Per-batch execution limits. */
struct BatchOptions
{
    /**
     * Wall-clock budget for the batch; infinity = none. A zero or
     * negative budget is already expired: the batch fails fast --
     * no kernel compiles, no first chunk runs -- and every request
     * comes back as an empty Partial (all-false trial mask) with
     * deadlineExpired set. The net:: front end propagates wire
     * deadlines here, so "expired on arrival" must cost nothing.
     */
    double deadlineSeconds = infinity;
    /**
     * Optional external cancel signal (borrowed), e.g. shared by a
     * caller that multiplexes several services. The service also has
     * its own cancel() for the common case.
     */
    const CancelToken *cancel = nullptr;
};

/** What a batch run produced. */
struct BatchOutcome
{
    /** One outcome per request, in request order. */
    std::vector<RequestOutcome> outcomes;
    /** The batch was cancelled (externally or via cancel()). */
    bool cancelled = false;
    /** The deadline expired mid-batch. */
    bool deadlineExpired = false;
    /** Wall-clock duration of the run() call, milliseconds. */
    double wallMs = 0.0;
};

/** Service-wide knobs. */
struct ServiceConfig
{
    /** Pool width (caller included); 0 = defaultThreadCount(). */
    unsigned threads = 0;
    /** Scenario cache capacity (compiled kernels). */
    std::size_t cacheCapacity = 32;
    /**
     * Optional registry: cache counters under "serve.cache.", batch
     * telemetry under "serve.batch." (requests / trials_done /
     * cancelled / deadline_expired counters, wall_ms gauge), and pool
     * utilization under "serve.pool." (jobs/chunks counters,
     * active_workers, active_workers_hwm and queue_depth_hwm gauges
     * via obs::PoolMetricsObserver) -- so compute saturation is
     * visible next to the front end's "net.*" latency metrics.
     */
    obs::MetricsRegistry *metrics = nullptr;
};

/**
 * A synchronous batched sweep server. One batch runs at a time
 * (run() serialises internally); cancel() is safe from any thread
 * while a batch is in flight.
 */
class SweepService
{
  public:
    explicit SweepService(ServiceConfig cfg = {});
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /** Run @p batch to completion, cancellation or deadline. */
    BatchOutcome run(const std::vector<SweepRequest> &batch,
                     const BatchOptions &opts = {});

    /** Cancel the in-flight batch (no-op when idle). */
    void cancel();

    /** The kernel cache (for stats or pre-warming). */
    ScenarioCache &cache() { return kernels; }

    /** Compute pool width (the net:: info/ping reply reports it). */
    unsigned threads() const { return pool.threadCount(); }

  private:
    ServiceConfig cfg;
    ScenarioCache kernels;
    /** Pool utilization metrics; declared before the pool so the pool
     *  (whose jobs call the observer) is destroyed first. */
    std::unique_ptr<obs::PoolMetricsObserver> poolMetrics;
    ThreadPool pool;
    /** Set by cancel(); distinguishable from a deadline stop. */
    CancelToken userCancel;
    /** Internal aggregate stop signal handed to the pool. */
    CancelToken stopToken;
    std::mutex runMutex;
};

} // namespace vsync::serve

#endif // VSYNC_SERVE_SWEEP_SERVICE_HH
