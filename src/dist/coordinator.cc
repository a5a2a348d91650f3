#include "dist/coordinator.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "serve/work_unit.hh"

namespace vsync::dist
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Where a shard stands. Terminal states: Won, Lost. */
enum class ShardState
{
    /** Waiting in the dispatch queue. */
    Pending,
    /** At least one attempt outstanding. */
    InFlight,
    /** A complete reply was accepted; result holds it. */
    Won,
    /** Permanently failed or abandoned; its trials stay undone. */
    Lost,
};

struct ShardInfo
{
    /** The trial slice this shard covers. */
    serve::WorkUnit unit;
    ShardState state = ShardState::Pending;
    /** Dispatches so far (bounded by maxShardAttempts). */
    unsigned attempts = 0;
    /** Attempts currently outstanding (0, 1, or 2 when hedged). */
    unsigned inFlight = 0;
    /** Worker of the sole outstanding attempt (inFlight == 1): the
     *  hedging scan skips shards it already owns. */
    unsigned ownerWorker = 0;
    /** When the oldest outstanding attempt was sent (hedge age). */
    Clock::time_point firstSent{};
    /** The winning reply (state Won). */
    net::WireResponse result;
};

} // namespace

/** Shared state of one run(), guarded by mx except where noted. */
struct Coordinator::RunState
{
    const std::vector<net::WireRequest> *batch = nullptr;

    std::mutex mx;
    /** Signalled on requeues, wins and losses; workers idle on it and
     *  the main thread waits for completion on it. */
    std::condition_variable cv;

    std::vector<ShardInfo> shards;
    /** Indices of Pending shards, dispatch order. */
    std::deque<std::size_t> pending;
    /** Shards not yet Won or Lost. */
    std::size_t unresolved = 0;
    /** Next attempt id (the wire correlation id; globally unique so a
     *  late reply can never be mistaken for another attempt's). */
    std::uint64_t nextId = 1;
    ShardLedger ledger;
    /** Stop dispatching: deadline hit, or the batch completed. */
    bool stop = false;
    bool deadlineHit = false;
    Clock::time_point deadline = Clock::time_point::max();
};

/** Why a worker's session ended. */
enum class Coordinator::SessionEnd
{
    /** The batch is complete or stopped; do not reconnect. */
    Finished,
    /** Transport or worker trouble; back off and reconnect. */
    Failed,
};

namespace
{

/**
 * A shard as one wire request: the parent request's parameters with
 * the slice's trial window. The id is the attempt id, not the parent's,
 * so replies resolve attempts unambiguously. No wire deadline rides
 * along -- the coordinator's own patience (shardDeadlineSeconds)
 * governs, and a worker-side deadline would turn retryable slowness
 * into Partial replies.
 */
std::string
encodeShardRequest(std::uint64_t id, const net::WireRequest &parent,
                   const serve::WorkUnit &u)
{
    net::WireRequest rq = parent;
    rq.id = id;
    rq.trialOffset = parent.trialOffset + u.begin;
    rq.trials = u.end - u.begin;
    rq.deadlineMs = infinity;
    return net::encodeRequest(rq);
}

/** A winning reply must carry exactly the shard's trial window. */
bool
replyShapeOk(const net::WireResponse &rsp, const net::WireRequest &parent,
             const serve::WorkUnit &u)
{
    const std::size_t len = u.end - u.begin;
    if (rsp.samples.size() != len)
        return false;
    if (parent.kind == net::QueryKind::Resilience &&
        (rsp.clockedSamples.size() != len ||
         rsp.faultSamples.size() != len))
        return false;
    return true;
}

double
secondsUntil(Clock::time_point tp)
{
    return std::chrono::duration<double>(tp - Clock::now()).count();
}

} // namespace

Coordinator::Coordinator(DistConfig config)
    : cfg(std::move(config)),
      pool(cfg.workers,
           [&] {
               WorkerPoolConfig pc = cfg.pool;
               if (!pc.metrics)
                   pc.metrics = cfg.metrics;
               return pc;
           }())
{
    VSYNC_ASSERT(!cfg.workers.empty(),
                 "DistConfig needs at least one worker");
    VSYNC_ASSERT(cfg.maxInFlightPerWorker >= 1,
                 "maxInFlightPerWorker must be >= 1");
    VSYNC_ASSERT(cfg.shardDeadlineSeconds > 0.0,
                 "shardDeadlineSeconds must be > 0");
    VSYNC_ASSERT(cfg.hedgeAfterSeconds >= 0.0,
                 "hedgeAfterSeconds must be >= 0");
}

void
Coordinator::onWorkerGone(RunState &st)
{
    if (pool.aliveCount() > 0)
        return;
    // The whole fleet is dead: nobody will ever take the pending
    // shards, so waiting for them would hang the run. Lose them now;
    // their requests surface as Partial. (Each dying session failed
    // its own outstanding attempts before reaching here, so no shard
    // still has an attempt out.)
    std::lock_guard<std::mutex> lk(st.mx);
    for (ShardInfo &s : st.shards) {
        if (s.state == ShardState::Pending ||
            s.state == ShardState::InFlight) {
            s.state = ShardState::Lost;
            ++st.ledger.lost;
            --st.unresolved;
        }
    }
    st.pending.clear();
    st.stop = true;
    st.cv.notify_all();
}

Coordinator::SessionEnd
Coordinator::sessionLoop(unsigned w, RunState &st)
{
    struct OwnedAttempt
    {
        std::size_t shard;
        Clock::time_point sent;
    };
    std::unordered_map<std::uint64_t, OwnedAttempt> owned;

    // Fail one outstanding attempt of shards[sh] (lock held).
    // Transient failures requeue the shard until its attempt budget
    // runs out; permanent ones lose it immediately. A shard a twin
    // attempt already settled only pays the failed-attempt count.
    const auto failAttemptLocked = [&](std::size_t sh, bool permanent) {
        ShardInfo &s = st.shards[sh];
        VSYNC_ASSERT(s.inFlight > 0,
                     "failing an attempt that is not out");
        --s.inFlight;
        ++st.ledger.failed;
        if (s.state == ShardState::Won || s.state == ShardState::Lost)
            return;
        if (!permanent && s.inFlight > 0)
            return; // a hedge twin is still trying
        if (permanent || s.attempts >= maxShardAttempts ||
            st.stop) {
            s.state = ShardState::Lost;
            ++st.ledger.lost;
            --st.unresolved;
            st.cv.notify_all();
            return;
        }
        s.state = ShardState::Pending;
        st.pending.push_back(sh);
        ++st.ledger.retried;
        st.cv.notify_all();
    };

    // Requeue everything this session still has outstanding; the
    // shards go back in the pool for any worker (including this one,
    // after its backoff).
    const auto failOwned = [&] {
        std::lock_guard<std::mutex> lk(st.mx);
        for (const auto &[id, a] : owned)
            failAttemptLocked(a.shard, false);
        owned.clear();
    };

    // Take the next attempt under the lock: a pending shard first,
    // else (when hedging) the oldest single-in-flight shard of
    // another worker that has been out longer than hedgeAfterSeconds.
    const auto acquire =
        [&]() -> std::optional<std::pair<std::uint64_t, std::size_t>> {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lk(st.mx);
        if (st.stop)
            return std::nullopt;
        if (now >= st.deadline) {
            st.stop = true;
            st.deadlineHit = true;
            st.cv.notify_all();
            return std::nullopt;
        }
        std::size_t sh;
        bool isHedge = false;
        if (!st.pending.empty()) {
            sh = st.pending.front();
            st.pending.pop_front();
        } else if (cfg.hedge) {
            std::optional<std::size_t> best;
            for (std::size_t i = 0; i < st.shards.size(); ++i) {
                const ShardInfo &s = st.shards[i];
                if (s.state != ShardState::InFlight || s.inFlight != 1 ||
                    s.ownerWorker == w ||
                    s.attempts >= maxShardAttempts)
                    continue;
                const double age =
                    std::chrono::duration<double>(now - s.firstSent)
                        .count();
                if (age < cfg.hedgeAfterSeconds)
                    continue; // not outstanding long enough yet
                if (!best || s.firstSent < st.shards[*best].firstSent)
                    best = i;
            }
            if (!best)
                return std::nullopt;
            sh = *best;
            isHedge = true;
        } else {
            return std::nullopt;
        }
        ShardInfo &s = st.shards[sh];
        s.state = ShardState::InFlight;
        if (s.inFlight == 0)
            s.firstSent = now;
        ++s.inFlight;
        ++s.attempts;
        s.ownerWorker = w;
        ++st.ledger.dispatched;
        if (isHedge)
            ++st.ledger.hedged;
        return std::make_pair(st.nextId++, sh);
    };

    for (;;) {
        // Top the pipeline up to the per-worker bound.
        while (owned.size() < cfg.maxInFlightPerWorker) {
            const auto acq = acquire();
            if (!acq)
                break;
            const auto [id, sh] = *acq;
            const std::string line = encodeShardRequest(
                id, (*st.batch)[st.shards[sh].unit.request],
                st.shards[sh].unit);
            if (!pool.send(w, line)) {
                {
                    std::lock_guard<std::mutex> lk(st.mx);
                    failAttemptLocked(sh, false);
                }
                failOwned();
                return SessionEnd::Failed;
            }
            owned.emplace(id, OwnedAttempt{sh, Clock::now()});
        }

        if (owned.empty()) {
            // Idle: no pending work and nothing hedgeable. Wait for a
            // requeue or for the batch to finish.
            std::unique_lock<std::mutex> lk(st.mx);
            if (st.unresolved == 0 || st.stop)
                return SessionEnd::Finished;
            st.cv.wait_for(lk, std::chrono::milliseconds(10));
            continue;
        }

        // Wait for a reply, bounded by the oldest attempt's patience
        // and the batch deadline.
        Clock::time_point oldest = Clock::time_point::max();
        for (const auto &[id, a] : owned)
            oldest = std::min(oldest, a.sent);
        Clock::time_point waitUntil =
            oldest +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(cfg.shardDeadlineSeconds));
        {
            std::lock_guard<std::mutex> lk(st.mx);
            waitUntil = std::min(waitUntil, st.deadline);
        }

        net::WireResponse rsp;
        const WorkerPool::RecvStatus got =
            pool.recv(w, secondsUntil(waitUntil), rsp);

        if (got == WorkerPool::RecvStatus::Closed) {
            const bool stopped = [&] {
                std::lock_guard<std::mutex> lk(st.mx);
                return st.stop || st.unresolved == 0;
            }();
            failOwned();
            return stopped ? SessionEnd::Finished : SessionEnd::Failed;
        }
        if (got == WorkerPool::RecvStatus::Timeout) {
            bool expired = false;
            {
                std::lock_guard<std::mutex> lk(st.mx);
                if (Clock::now() >= st.deadline) {
                    st.stop = true;
                    st.deadlineHit = true;
                    st.cv.notify_all();
                    expired = true;
                }
            }
            failOwned();
            // Batch deadline: orderly stop. Shard deadline: the worker
            // sat on a shard too long -- fail the session so its
            // shards move to healthier workers.
            if (expired)
                return SessionEnd::Finished;
            inform("dist: worker %s:%u timed out, requeueing its "
                   "shards",
                   pool.endpoint(w).host.c_str(),
                   unsigned(pool.endpoint(w).port));
            return SessionEnd::Failed;
        }

        const auto it = owned.find(rsp.id);
        if (it == owned.end())
            continue; // reply to an attempt this session never made
        const OwnedAttempt att = it->second;
        owned.erase(it);
        pool.observeLatency(
            w, std::chrono::duration<double, std::milli>(Clock::now() -
                                                         att.sent)
                   .count());

        // Classify the reply under the lock.
        bool sessionFailure = false;
        {
            std::lock_guard<std::mutex> lk(st.mx);
            ShardInfo &s = st.shards[att.shard];
            const net::WireRequest &parent =
                (*st.batch)[s.unit.request];
            if (rsp.ok && rsp.complete &&
                replyShapeOk(rsp, parent, s.unit)) {
                --s.inFlight;
                if (s.state == ShardState::Won ||
                    s.state == ShardState::Lost) {
                    // A twin already settled it; this correct reply
                    // merely arrived late.
                    ++st.ledger.superseded;
                } else {
                    s.state = ShardState::Won;
                    s.result = std::move(rsp);
                    ++st.ledger.completed;
                    --st.unresolved;
                    st.cv.notify_all();
                }
            } else if (!rsp.ok &&
                       rsp.error == net::errBadRequest) {
                // Deterministically rejected: retrying cannot help.
                warn("dist: worker rejected shard as bad_request: %s",
                     rsp.detail.c_str());
                failAttemptLocked(att.shard, true);
            } else {
                // Shed, draining, partial, or malformed: transient.
                // Requeue and fail the session so this worker backs
                // off before taking more work.
                failAttemptLocked(att.shard, false);
                sessionFailure = true;
            }
        }
        if (sessionFailure) {
            failOwned();
            return SessionEnd::Failed;
        }
        pool.noteSuccess(w);
    }
}

void
Coordinator::workerLoop(unsigned w, RunState &st)
{
    for (;;) {
        {
            std::lock_guard<std::mutex> lk(st.mx);
            if (st.unresolved == 0 || st.stop)
                return;
        }
        if (!pool.ensureConnected(w)) {
            // Dead (budget exhausted) or the run is stopping.
            if (pool.state(w) == WorkerState::Dead)
                onWorkerGone(st);
            return;
        }
        if (sessionLoop(w, st) == SessionEnd::Finished)
            return;
        if (!pool.noteSessionFailure(w)) {
            onWorkerGone(st);
            return;
        }
        if (!pool.backoffSleep(w))
            return; // stop requested during the backoff
    }
}

DistOutcome
Coordinator::run(const std::vector<net::WireRequest> &batch,
                 const DistOptions &opts)
{
    std::lock_guard<std::mutex> runLock(runMutex);
    pool.resetStop();
    const Clock::time_point t0 = Clock::now();

    RunState st;
    st.batch = &batch;
    for (std::size_t r = 0; r < batch.size(); ++r) {
        const net::WireRequest &rq = batch[r];
        VSYNC_ASSERT(rq.kind != net::QueryKind::Info,
                     "request %zu: info is not a sweep", r);
        VSYNC_ASSERT(rq.trials >= 1, "request %zu: zero trials", r);
        VSYNC_ASSERT(rq.grain >= 1, "request %zu: zero grain", r);
        std::vector<serve::WorkUnit> units;
        serve::appendWorkUnits(r, rq.trials, rq.grain, units);
        for (const serve::WorkUnit &u : units) {
            ShardInfo si;
            si.unit = u;
            st.shards.push_back(std::move(si));
        }
    }
    st.unresolved = st.shards.size();
    st.ledger.shards = st.shards.size();
    for (std::size_t i = 0; i < st.shards.size(); ++i)
        st.pending.push_back(i);
    if (opts.deadlineSeconds < infinity)
        st.deadline =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         std::max(0.0, opts.deadlineSeconds)));

    std::vector<std::thread> threads;
    threads.reserve(pool.size());
    for (unsigned w = 0; w < pool.size(); ++w)
        threads.emplace_back([this, w, &st] { workerLoop(w, st); });

    {
        std::unique_lock<std::mutex> lk(st.mx);
        const auto done = [&] {
            return st.unresolved == 0 || st.stop;
        };
        if (st.deadline == Clock::time_point::max())
            st.cv.wait(lk, done);
        else
            st.cv.wait_until(lk, st.deadline, done);
        if (st.unresolved > 0 && !st.stop)
            st.deadlineHit = true;
        st.stop = true;
        st.cv.notify_all();
    }
    // Break any blocked recv/backoff so the fleet unwinds promptly;
    // abandoned attempts are failed by their own sessions.
    pool.requestStop();
    for (std::thread &t : threads)
        t.join();

    DistOutcome out;
    out.outcomes.resize(batch.size());

    // Final sweep: anything not Won is Lost (attempts were already
    // failed by the sessions that owned them).
    for (ShardInfo &s : st.shards) {
        if (s.state == ShardState::Pending ||
            s.state == ShardState::InFlight) {
            s.state = ShardState::Lost;
            ++st.ledger.lost;
            --st.unresolved;
        }
    }

    // Fold: the same outcome layout (prepareOutcome) and reduction
    // (foldOutcomeInTrialOrder) as SweepService, with remotely
    // computed samples in the slots.
    std::vector<std::uint8_t> trialDone;
    for (std::size_t r = 0; r < batch.size(); ++r) {
        const net::WireRequest &rq = batch[r];
        const bool isSkew = rq.kind == net::QueryKind::Skew;
        serve::RequestOutcome &o = out.outcomes[r];
        serve::prepareOutcome(isSkew, rq.trials, rq.faultRate, o);
        trialDone.assign(rq.trials, 0);
        for (const ShardInfo &s : st.shards) {
            if (s.unit.request != r || s.state != ShardState::Won)
                continue;
            const std::size_t len = s.unit.end - s.unit.begin;
            for (std::size_t i = 0; i < len; ++i) {
                const std::size_t slot = s.unit.begin + i;
                if (isSkew) {
                    o.skew.samples[slot] = s.result.samples[i];
                } else {
                    o.resilience.maxCommSkew.samples[slot] =
                        s.result.samples[i];
                    o.resilience.clockedFraction.samples[slot] =
                        s.result.clockedSamples[i];
                    o.faultSamples[slot] = s.result.faultSamples[i];
                }
                trialDone[slot] = 1;
            }
        }
        serve::foldOutcomeInTrialOrder(isSkew, trialDone, o);
    }

    out.deadlineExpired = st.deadlineHit;
    out.ledger = st.ledger;
    out.wallMs =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();

    VSYNC_ASSERT(out.ledger.balanced(),
                 "shard ledger out of balance: %llu dispatched, %llu "
                 "completed, %llu superseded, %llu failed; %llu shards, "
                 "%llu lost",
                 static_cast<unsigned long long>(out.ledger.dispatched),
                 static_cast<unsigned long long>(out.ledger.completed),
                 static_cast<unsigned long long>(out.ledger.superseded),
                 static_cast<unsigned long long>(out.ledger.failed),
                 static_cast<unsigned long long>(out.ledger.shards),
                 static_cast<unsigned long long>(out.ledger.lost));

    if (cfg.metrics) {
        obs::MetricsRegistry &m = *cfg.metrics;
        m.counter("dist.shards.dispatched").inc(out.ledger.dispatched);
        m.counter("dist.shards.completed").inc(out.ledger.completed);
        m.counter("dist.shards.superseded").inc(out.ledger.superseded);
        m.counter("dist.shards.failed").inc(out.ledger.failed);
        m.counter("dist.shards.retried").inc(out.ledger.retried);
        m.counter("dist.shards.hedged").inc(out.ledger.hedged);
        m.counter("dist.shards.lost").inc(out.ledger.lost);
        m.gauge("dist.fleet.alive")
            .set(static_cast<double>(pool.aliveCount()));
        m.gauge("dist.run.wall_ms").set(out.wallMs);
        if (out.deadlineExpired)
            m.counter("dist.run.deadline_expired").inc();
    }
    return out;
}

} // namespace vsync::dist
