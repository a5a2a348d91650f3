/**
 * @file
 * Distributed sweep execution: shard a batch across remote workers.
 *
 * The Coordinator takes the same kind of batch a local
 * serve::SweepService takes -- expressed as net::WireRequests, since
 * only wire-nameable scenarios can run remotely -- splits every
 * request's trials into the *same* grain-sized work units the local
 * service schedules (serve::appendWorkUnits), and dispatches each unit
 * as one wire request carrying trial_offset = the unit's first global
 * trial. Workers draw from Rng::forTrial(seed, trial_offset + i), so a
 * shard computes exactly the bytes the parent request's slice would;
 * the returned per-trial samples land in their global slots and reduce
 * through serve::foldOutcomeInTrialOrder. Determinism therefore does
 * not depend on which worker ran a shard, the order replies arrived,
 * how often a shard was retried or hedged, or how the fleet was sized:
 * a distributed run is bit-identical to a local SweepService run by
 * construction.
 *
 * Failure model. Every dispatch is an *attempt*; a shard survives its
 * attempts. Transient failures (connection loss, response timeout,
 * shed/overloaded, a draining worker, a malformed reply) fail the
 * attempt and requeue the shard for any worker, with the failing
 * worker's deterministic exponential backoff (common/backoff) pacing
 * its own retries; permanent failures (bad_request) lose the shard
 * immediately -- resending an invalid request cannot help. A worker
 * that fails cfg.pool.failureBudget consecutive times is Dead and
 * takes no further shards; when every worker is dead, remaining shards
 * are Lost rather than waited for. A shard that exhausts
 * maxShardAttempts is Lost. Lost shards surface as Partial outcomes
 * with per-trial masks -- the same contract as a local deadline expiry,
 * never silently dropped trials.
 *
 * Straggler hedging (optional): a worker with a free slot and no
 * pending work duplicates the oldest single-in-flight shard owned by
 * another worker once it has been outstanding hedgeAfterSeconds. The
 * first complete reply wins; the loser is counted superseded. Hedging
 * cannot perturb results -- both attempts compute identical bytes --
 * it only moves completion earlier.
 *
 * The ShardLedger accounts for every attempt and shard exactly:
 * dispatched == completed + superseded + failed and shards ==
 * completed + lost always hold (balanced() checks; test_dist and
 * perfbench's fleet_batch assert it).
 */

#ifndef VSYNC_DIST_COORDINATOR_HH
#define VSYNC_DIST_COORDINATOR_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.hh"
#include "dist/worker_pool.hh"
#include "net/protocol.hh"
#include "serve/sweep_service.hh"

namespace vsync::dist
{

/** Dispatches per shard (first try + retries + hedges) before the
 *  shard is Lost. */
constexpr unsigned maxShardAttempts = 5;

/** Coordinator knobs. */
struct DistConfig
{
    /** The fleet. At least one endpoint. */
    std::vector<WorkerEndpoint> workers;
    /** Outstanding shards per worker (its pipelining depth). */
    std::size_t maxInFlightPerWorker = 2;
    /**
     * Patience for one dispatched shard's reply. When a worker's
     * oldest outstanding shard exceeds it the session is failed and
     * every shard it carried is requeued -- the recovery path a
     * silently dead worker takes.
     */
    double shardDeadlineSeconds = 60.0;
    /** Duplicate slow shards onto idle workers. */
    bool hedge = true;
    /** Outstanding age before a shard is eligible for hedging. */
    double hedgeAfterSeconds = 0.25;
    /** Fleet health knobs (backoff, failure budget, ping timeout). */
    WorkerPoolConfig pool;
    /**
     * Optional registry: shard accounting under "dist.shards.*",
     * fleet gauges under "dist.fleet.*", per-worker latency under
     * "dist.worker.<i>.latency_ms". Also handed to the WorkerPool.
     */
    obs::MetricsRegistry *metrics = nullptr;
};

/** Per-run limits. */
struct DistOptions
{
    /**
     * Wall-clock budget for the whole batch; infinity = none. On
     * expiry dispatch stops, outstanding attempts are abandoned and
     * unfinished shards are Lost: their requests come back Partial.
     */
    double deadlineSeconds = infinity;
};

/**
 * Exact attempt/shard accounting of one run. Attempts partition into
 * completed (the winning reply of a shard), superseded (a correct
 * reply that arrived after its shard was already won -- hedge losers)
 * and failed (errors, timeouts, abandonment); shards partition into
 * completed and lost.
 */
struct ShardLedger
{
    /** Work units in the batch. */
    std::uint64_t shards = 0;
    /** Wire dispatches: first tries + retries + hedges. */
    std::uint64_t dispatched = 0;
    /** Attempts whose reply won their shard (== shards won). */
    std::uint64_t completed = 0;
    /** Correct replies that lost the race to a twin attempt. */
    std::uint64_t superseded = 0;
    /** Attempts that died: error reply, timeout, connection loss,
     *  malformed response, or abandoned at stop. */
    std::uint64_t failed = 0;
    /** Requeues after a transient attempt failure. */
    std::uint64_t retried = 0;
    /** Speculative duplicate dispatches. */
    std::uint64_t hedged = 0;
    /** Shards that never completed (Partial trials upstream). */
    std::uint64_t lost = 0;

    /** The two partition identities above. */
    bool
    balanced() const
    {
        return dispatched == completed + superseded + failed &&
               shards == completed + lost;
    }
};

/** What a distributed run produced. */
struct DistOutcome
{
    /** One outcome per request, in request order -- the same type a
     *  local SweepService returns, folded by the same seam. */
    std::vector<serve::RequestOutcome> outcomes;
    /** The batch deadline expired before every shard completed. */
    bool deadlineExpired = false;
    /** Exact attempt/shard accounting. */
    ShardLedger ledger;
    /** Wall-clock duration of the run() call, milliseconds. */
    double wallMs = 0.0;
};

/**
 * The coordinator. One run() at a time (serialised internally); the
 * fleet's connections and health survive across runs, so consecutive
 * batches reuse warm connections and remembered Dead workers.
 */
class Coordinator
{
  public:
    explicit Coordinator(DistConfig cfg);

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /**
     * Run @p batch to completion or deadline. Requests must be sweep
     * requests (kind skew or resilience; an info request fatal()s)
     * with parameters inside the wire bounds.
     */
    DistOutcome run(const std::vector<net::WireRequest> &batch,
                    const DistOptions &opts = {});

    /** The fleet (health introspection for tests and CLIs). */
    WorkerPool &workers() { return pool; }

  private:
    struct RunState;
    enum class SessionEnd;

    void workerLoop(unsigned w, RunState &st);
    SessionEnd sessionLoop(unsigned w, RunState &st);
    void onWorkerGone(RunState &st);

    DistConfig cfg;
    WorkerPool pool;
    std::mutex runMutex;
};

} // namespace vsync::dist

#endif // VSYNC_DIST_COORDINATOR_HH
