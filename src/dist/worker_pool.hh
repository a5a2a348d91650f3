/**
 * @file
 * A fleet of remote scenario workers, with health tracking.
 *
 * The WorkerPool owns one TCP connection per remote ScenarioServer
 * and the bookkeeping the Coordinator needs to trust them: liveness
 * (an info/ping handshake on every connect), per-worker reconnect
 * backoff (deterministic exponential with Rng jitter, each worker on
 * its own substream so a fleet never retries in lock step), a
 * consecutive-failure budget after which a worker is declared Dead,
 * and per-worker latency histograms under "dist.worker.<i>.".
 *
 * Threading contract: each worker slot is driven by exactly one
 * coordinator thread at a time (connect/send/recv/fail for worker w
 * all happen on w's thread), so per-worker state is unlocked; only
 * the cross-worker aggregates (alive count, stop signal) are atomic.
 * requestStop() may be called from any thread: it wakes blocked
 * recv() polls through a never-drained self-pipe and aborts backoff
 * sleeps, so a deadline can always interrupt the fleet.
 */

#ifndef VSYNC_DIST_WORKER_POOL_HH
#define VSYNC_DIST_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/backoff.hh"
#include "net/protocol.hh"

namespace vsync::obs
{
class MetricsRegistry;
class Histogram;
} // namespace vsync::obs

namespace vsync::dist
{

/** Address of one remote ScenarioServer. */
struct WorkerEndpoint
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
};

/** Where a worker stands in its lifecycle. */
enum class WorkerState
{
    /** Not yet connected (initial, or after a session failure). */
    Disconnected,
    /** Connected and info-handshaken. */
    Alive,
    /** Failure budget exhausted; the worker takes no more shards. */
    Dead,
};

/**
 * Response line-length cap. Responses legitimately dwarf request
 * lines (per-trial sample arrays), so this is bounded paranoia
 * against a corrupt peer, not the 1 MiB request-side default.
 */
constexpr std::size_t maxResponseLineBytes = std::size_t{256} << 20;

/** Pool-wide knobs. */
struct WorkerPoolConfig
{
    /** Reconnect schedule per worker (jittered; see common/backoff). */
    BackoffConfig backoff;
    /**
     * Consecutive session failures (failed connects or mid-session
     * errors) before a worker is declared Dead. A success resets the
     * count, so a flaky-but-working worker is never written off.
     */
    unsigned failureBudget = 3;
    /** Patience for the info handshake reply on connect. */
    double pingTimeoutSeconds = 5.0;
    /**
     * Seed of the backoff jitter substreams: worker w jitters with
     * Rng::forTrial(seed, w), decorrelating the fleet's retries while
     * keeping every schedule reproducible.
     */
    std::uint64_t seed = 0xd157'5eedULL;
    /** Optional registry for "dist.worker.<i>.latency_ms" etc. */
    obs::MetricsRegistry *metrics = nullptr;
};

/** The fleet. See the file comment for the threading contract. */
class WorkerPool
{
  public:
    WorkerPool(std::vector<WorkerEndpoint> endpoints,
               WorkerPoolConfig cfg = {});
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Fleet size (fixed at construction). */
    std::size_t size() const;

    /** The address of worker @p w. */
    const WorkerEndpoint &endpoint(unsigned w) const;

    /**
     * Ensure worker @p w has a live, info-handshaken connection,
     * sleeping its backoff between attempts. Returns false when the
     * worker is (or just became) Dead or the pool was stopped --
     * the caller should give up on this worker.
     */
    bool ensureConnected(unsigned w);

    /**
     * Record a mid-session failure (send/recv error, response
     * timeout): closes the connection, charges the failure budget.
     * Returns false when the budget is exhausted (worker now Dead).
     */
    bool noteSessionFailure(unsigned w);

    /** Record a successful exchange: resets failures and backoff. */
    void noteSuccess(unsigned w);

    /**
     * Sleep worker @p w's next backoff delay (advancing its
     * deterministic schedule). False when requestStop() interrupted
     * the sleep -- the caller should unwind, not retry.
     */
    bool backoffSleep(unsigned w);

    /** Send one line (newline appended). False on a dead socket. */
    bool send(unsigned w, const std::string &line);

    /** What recv() observed. */
    enum class RecvStatus
    {
        /** A response line was parsed into @p out. */
        Ok,
        /** No complete line within the timeout. */
        Timeout,
        /** Connection closed/failed, the pool was stopped, or the
         *  peer sent garbage (unparseable or oversized line). */
        Closed,
    };

    /**
     * Receive the next response line from worker @p w, waiting up to
     * @p timeout_seconds.
     */
    RecvStatus recv(unsigned w, double timeout_seconds,
                    net::WireResponse &out);

    /** Record one request-to-response latency observation. */
    void observeLatency(unsigned w, double ms);

    /** Current state of worker @p w. */
    WorkerState state(unsigned w) const;

    /** Workers not Dead. */
    std::size_t aliveCount() const
    {
        return alive.load(std::memory_order_relaxed);
    }

    /**
     * Abort blocking operations fleet-wide: backoff sleeps wake and
     * fail, recv() returns Closed, ensureConnected() returns false.
     * Sticky until resetStop().
     */
    void requestStop();

    /** Re-arm after requestStop() (between batches). */
    void resetStop();

  private:
    struct Worker;

    bool connectOnce(unsigned w);
    void closeWorker(Worker &wk);
    /** Sleep @p seconds unless requestStop() interrupts; true when
     *  the sleep completed undisturbed. */
    bool interruptibleSleep(double seconds);
    void markDead(Worker &wk);

    WorkerPoolConfig cfg;
    std::deque<Worker> workers;
    std::atomic<std::size_t> alive{0};
    std::atomic<bool> stopping{false};
    /** Written once per stop, never drained: wakes every recv poll. */
    int wakePipe[2] = {-1, -1};
    std::mutex sleepMutex;
    std::condition_variable sleepCv;
};

} // namespace vsync::dist

#endif // VSYNC_DIST_WORKER_POOL_HH
