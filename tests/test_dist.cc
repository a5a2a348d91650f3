/**
 * @file
 * Tests for the distributed coordinator: bit-identity with a local
 * SweepService across fleet sizes and shard-assignment permutations,
 * recovery from a worker killed mid-run, tolerance of dead endpoints,
 * graceful degradation when the whole fleet is dead, straggler
 * hedging, and exact shard-ledger accounting throughout.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "clocktree/builders.hh"
#include "dist/coordinator.hh"
#include "layout/generators.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "serve/sweep_service.hh"

namespace
{

using namespace vsync;

const core::WireDelay kDelay{0.05, 0.005};

/** A fleet of real in-process ScenarioServers. */
struct Fleet
{
    /** Per-server metrics; declared first so they outlive the servers. */
    std::vector<std::unique_ptr<obs::MetricsRegistry>> metrics;
    std::vector<std::unique_ptr<net::ScenarioServer>> servers;
    std::vector<dist::WorkerEndpoint> endpoints;

    explicit Fleet(unsigned n, unsigned compute_threads = 2)
    {
        for (unsigned i = 0; i < n; ++i) {
            metrics.push_back(std::make_unique<obs::MetricsRegistry>());
            net::ServerConfig sc;
            sc.computeThreads = compute_threads;
            sc.metrics = metrics.back().get();
            auto s = std::make_unique<net::ScenarioServer>(sc);
            EXPECT_TRUE(s->start());
            endpoints.push_back(
                dist::WorkerEndpoint{"127.0.0.1", s->port()});
            servers.push_back(std::move(s));
        }
    }
};

/**
 * A loopback port with nothing listening on it. The socket stays bound
 * (never listening) for the object's lifetime, so connects are refused
 * and no other socket can claim the port in the meantime.
 */
class DeadPort
{
  public:
    DeadPort() : fd(::socket(AF_INET, SOCK_STREAM, 0))
    {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = 0;
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        socklen_t len = sizeof(addr);
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
        boundPort = ntohs(addr.sin_port);
    }

    ~DeadPort() { ::close(fd); }

    DeadPort(const DeadPort &) = delete;
    DeadPort &operator=(const DeadPort &) = delete;

    std::uint16_t port() const { return boundPort; }

  private:
    int fd;
    std::uint16_t boundPort = 0;
};

/** Fast-failing coordinator knobs for tests. */
dist::DistConfig
testConfig(std::vector<dist::WorkerEndpoint> eps)
{
    dist::DistConfig cfg;
    cfg.workers = std::move(eps);
    cfg.pool.backoff.baseSeconds = 0.01;
    cfg.pool.backoff.capSeconds = 0.05;
    cfg.pool.pingTimeoutSeconds = 5.0;
    return cfg;
}

net::WireRequest
skewRequest(int rows, int cols, std::size_t trials, std::size_t grain)
{
    net::WireRequest rq;
    rq.kind = net::QueryKind::Skew;
    rq.scheme = net::WireScheme::HTree;
    rq.rows = rows;
    rq.cols = cols;
    rq.seed = 0xfeedULL;
    rq.trials = trials;
    rq.grain = grain;
    rq.delay = kDelay;
    return rq;
}

net::WireRequest
resilienceRequest(net::WireScheme scheme, std::size_t trials,
                  std::size_t grain)
{
    net::WireRequest rq;
    rq.kind = net::QueryKind::Resilience;
    rq.scheme = scheme;
    rq.rows = 4;
    rq.cols = 4;
    rq.faultRate = 0.05;
    rq.seed = 99;
    rq.trials = trials;
    rq.grain = grain;
    rq.delay = kDelay;
    return rq;
}

/**
 * The local reference: the same batch run by an in-process
 * SweepService, scenarios built exactly as ScenarioServer builds them.
 * Owns the layouts/trees the requests borrow.
 */
struct LocalReference
{
    std::vector<std::unique_ptr<layout::Layout>> layouts;
    std::vector<std::unique_ptr<clocktree::ClockTree>> trees;
    std::vector<serve::SweepRequest> batch;
    serve::BatchOutcome out;

    explicit LocalReference(const std::vector<net::WireRequest> &wire)
    {
        for (const net::WireRequest &rq : wire) {
            auto l = std::make_unique<layout::Layout>(
                layout::meshLayout(rq.rows, rq.cols));
            mc::McConfig mcc;
            mcc.seed = rq.seed;
            mcc.trials = rq.trials;
            mcc.grain = rq.grain;
            if (rq.kind == net::QueryKind::Skew) {
                auto t = std::make_unique<clocktree::ClockTree>(
                    rq.scheme == net::WireScheme::Spine
                        ? clocktree::buildSpine(*l)
                        : clocktree::buildHTreeGrid(*l, rq.rows,
                                                    rq.cols));
                serve::SkewRequest s;
                s.layout = l.get();
                s.tree = t.get();
                s.delay = rq.delay;
                s.cfg = mcc;
                batch.emplace_back(s);
                trees.push_back(std::move(t));
            } else {
                serve::ResilienceRequest r;
                r.layout = l.get();
                r.rows = rq.rows;
                r.cols = rq.cols;
                r.kind = rq.scheme == net::WireScheme::Trix
                             ? mc::DistributionKind::TrixGrid
                             : (rq.scheme == net::WireScheme::Spine
                                    ? mc::DistributionKind::Spine
                                    : mc::DistributionKind::HTree);
                r.faultRate = rq.faultRate;
                r.rc.delay = rq.delay;
                r.cfg = mcc;
                batch.emplace_back(r);
            }
            layouts.push_back(std::move(l));
        }
        serve::SweepService svc;
        out = svc.run(batch);
    }
};

/** Bitwise equality of a distributed outcome with the local one. */
void
expectBitIdentical(const serve::RequestOutcome &got,
                   const serve::RequestOutcome &want, std::size_t r)
{
    EXPECT_EQ(static_cast<int>(got.status),
              static_cast<int>(want.status))
        << r;
    EXPECT_EQ(got.trialsDone, want.trialsDone) << r;
    EXPECT_EQ(got.trialsRequested, want.trialsRequested) << r;
    ASSERT_EQ(got.skew.samples.size(), want.skew.samples.size()) << r;
    for (std::size_t i = 0; i < want.skew.samples.size(); ++i)
        EXPECT_EQ(got.skew.samples[i], want.skew.samples[i])
            << r << " " << i;
    if (!want.skew.samples.empty()) {
        EXPECT_EQ(got.skew.stat.mean(), want.skew.stat.mean()) << r;
        EXPECT_EQ(got.skew.stat.stddev(), want.skew.stat.stddev()) << r;
        EXPECT_EQ(got.skew.stat.min(), want.skew.stat.min()) << r;
        EXPECT_EQ(got.skew.stat.max(), want.skew.stat.max()) << r;
    }
    const mc::McResult *gs[] = {&got.resilience.maxCommSkew,
                                &got.resilience.clockedFraction};
    const mc::McResult *ws[] = {&want.resilience.maxCommSkew,
                                &want.resilience.clockedFraction};
    for (int k = 0; k < 2; ++k) {
        ASSERT_EQ(gs[k]->samples.size(), ws[k]->samples.size()) << r;
        for (std::size_t i = 0; i < ws[k]->samples.size(); ++i)
            EXPECT_EQ(gs[k]->samples[i], ws[k]->samples[i])
                << r << " " << i;
        if (!ws[k]->samples.empty()) {
            EXPECT_EQ(gs[k]->stat.mean(), ws[k]->stat.mean()) << r;
            EXPECT_EQ(gs[k]->stat.stddev(), ws[k]->stat.stddev()) << r;
        }
    }
    EXPECT_EQ(got.resilience.meanFaults, want.resilience.meanFaults)
        << r;
    EXPECT_EQ(got.resilience.faultRate, want.resilience.faultRate) << r;
    ASSERT_EQ(got.faultSamples.size(), want.faultSamples.size()) << r;
    for (std::size_t i = 0; i < want.faultSamples.size(); ++i)
        EXPECT_EQ(got.faultSamples[i], want.faultSamples[i])
            << r << " " << i;
}

std::vector<net::WireRequest>
mixedBatch()
{
    return {skewRequest(6, 6, 48, 8),
            resilienceRequest(net::WireScheme::HTree, 32, 8),
            resilienceRequest(net::WireScheme::Trix, 32, 8)};
}

TEST(Dist, FleetsOf1And2And4AreBitIdenticalToLocalService)
{
    const std::vector<net::WireRequest> batch = mixedBatch();
    const LocalReference ref(batch);
    ASSERT_FALSE(ref.out.deadlineExpired);

    for (const unsigned n : {1u, 2u, 4u}) {
        Fleet fleet(n);
        dist::Coordinator coord(testConfig(fleet.endpoints));
        const dist::DistOutcome out = coord.run(batch);

        EXPECT_FALSE(out.deadlineExpired) << n;
        EXPECT_TRUE(out.ledger.balanced()) << n;
        EXPECT_EQ(out.ledger.shards, 14u) << n; // 6 + 4 + 4 units
        EXPECT_EQ(out.ledger.completed, out.ledger.shards) << n;
        EXPECT_EQ(out.ledger.lost, 0u) << n;
        ASSERT_EQ(out.outcomes.size(), batch.size()) << n;
        for (std::size_t r = 0; r < batch.size(); ++r)
            expectBitIdentical(out.outcomes[r], ref.out.outcomes[r], r);
    }
}

TEST(Dist, ConsecutiveRunsReuseTheFleetAndStayIdentical)
{
    const std::vector<net::WireRequest> batch = mixedBatch();
    Fleet fleet(2);
    dist::Coordinator coord(testConfig(fleet.endpoints));
    const dist::DistOutcome a = coord.run(batch);
    const dist::DistOutcome b = coord.run(batch);
    EXPECT_TRUE(a.ledger.balanced());
    EXPECT_TRUE(b.ledger.balanced());
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t r = 0; r < a.outcomes.size(); ++r)
        expectBitIdentical(b.outcomes[r], a.outcomes[r], r);
}

TEST(Dist, ShardAssignmentPermutationDoesNotChangeBytes)
{
    // Different pipelining depth, hedging mode and jitter seed give a
    // different shard-to-worker assignment and arrival order; the
    // folded bytes must not notice.
    const std::vector<net::WireRequest> batch = mixedBatch();
    Fleet fleet(2);

    dist::DistConfig a = testConfig(fleet.endpoints);
    a.maxInFlightPerWorker = 1;
    a.hedge = false;
    a.pool.seed = 1;
    const dist::DistOutcome outA = dist::Coordinator(a).run(batch);

    dist::DistConfig b = testConfig(fleet.endpoints);
    b.maxInFlightPerWorker = 4;
    b.hedge = true;
    b.hedgeAfterSeconds = 0.0;
    b.pool.seed = 77;
    const dist::DistOutcome outB = dist::Coordinator(b).run(batch);

    EXPECT_TRUE(outA.ledger.balanced());
    EXPECT_TRUE(outB.ledger.balanced());
    EXPECT_EQ(outA.ledger.completed, outA.ledger.shards);
    EXPECT_EQ(outB.ledger.completed, outB.ledger.shards);
    ASSERT_EQ(outA.outcomes.size(), outB.outcomes.size());
    for (std::size_t r = 0; r < outA.outcomes.size(); ++r)
        expectBitIdentical(outB.outcomes[r], outA.outcomes[r], r);
}

TEST(Dist, WorkerKilledMidRunIsReassignedAndStaysBitIdentical)
{
    // A long mixed batch on two workers; one is stopped mid-run. Its
    // shards must be requeued onto the survivor and the final bytes of
    // every request must be exactly what an undisturbed local run
    // computes. The resilience requests go first, so the kill lands
    // while their shards are in flight; the long skew tail keeps the
    // run going well past it on any host.
    std::vector<net::WireRequest> batch = {
        resilienceRequest(net::WireScheme::HTree, 4000, 100), // 40 shards
        resilienceRequest(net::WireScheme::Trix, 4000, 100),  // 40 shards
        skewRequest(6, 6, 200000, 200)}; // 1000 shards
    const LocalReference ref(batch);

    Fleet fleet(2);
    dist::DistConfig cfg = testConfig(fleet.endpoints);
    cfg.pool.failureBudget = 2;
    dist::Coordinator coord(cfg);

    // Stop worker 1 once it has answered its first shard: provably
    // mid-run, however fast the host (a fixed delay can land after the
    // batch already finished).
    std::thread killer([&] {
        const obs::Counter &served =
            fleet.metrics[1]->counter("net.requests.completed");
        const auto giveUp =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (served.value() == 0 &&
               std::chrono::steady_clock::now() < giveUp)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        fleet.servers[1]->stop();
    });
    const dist::DistOutcome out = coord.run(batch);
    killer.join();

    EXPECT_FALSE(out.deadlineExpired);
    EXPECT_TRUE(out.ledger.balanced());
    EXPECT_EQ(out.ledger.completed, out.ledger.shards);
    EXPECT_EQ(out.ledger.lost, 0u);
    // The kill landed mid-run: some attempts died and were retried.
    EXPECT_GT(out.ledger.failed, 0u);
    EXPECT_GT(out.ledger.retried, 0u);
    EXPECT_EQ(coord.workers().state(1), dist::WorkerState::Dead);
    ASSERT_EQ(out.outcomes.size(), batch.size());
    for (std::size_t r = 0; r < batch.size(); ++r)
        expectBitIdentical(out.outcomes[r], ref.out.outcomes[r], r);
}

TEST(Dist, DeadEndpointInTheFleetIsRoutedAround)
{
    const std::vector<net::WireRequest> batch = mixedBatch();
    const LocalReference ref(batch);

    Fleet fleet(1);
    const DeadPort dead;
    std::vector<dist::WorkerEndpoint> eps = fleet.endpoints;
    eps.push_back(dist::WorkerEndpoint{"127.0.0.1", dead.port()});
    dist::DistConfig cfg = testConfig(eps);
    // One refused connect is enough to declare the endpoint Dead.
    cfg.pool.failureBudget = 1;
    dist::Coordinator coord(cfg);
    const dist::DistOutcome out = coord.run(batch);
    // The (fast) batch can finish before worker 1's session ever
    // dials it. Dial it now, between batches, so the health verdict
    // is in before the assertions; a worker already Dead returns at
    // once.
    coord.workers().resetStop();
    EXPECT_FALSE(coord.workers().ensureConnected(1));

    EXPECT_TRUE(out.ledger.balanced());
    EXPECT_EQ(out.ledger.completed, out.ledger.shards);
    EXPECT_EQ(coord.workers().state(1), dist::WorkerState::Dead);
    EXPECT_EQ(coord.workers().aliveCount(), 1u);
    for (std::size_t r = 0; r < batch.size(); ++r)
        expectBitIdentical(out.outcomes[r], ref.out.outcomes[r], r);
}

TEST(Dist, WholeFleetDeadYieldsPartialOutcomesNotAHang)
{
    const std::vector<net::WireRequest> batch = mixedBatch();
    const DeadPort deadA, deadB;
    std::vector<dist::WorkerEndpoint> eps = {
        dist::WorkerEndpoint{"127.0.0.1", deadA.port()},
        dist::WorkerEndpoint{"127.0.0.1", deadB.port()}};
    dist::Coordinator coord(testConfig(eps));
    const dist::DistOutcome out = coord.run(batch);

    EXPECT_TRUE(out.ledger.balanced());
    EXPECT_EQ(out.ledger.completed, 0u);
    EXPECT_EQ(out.ledger.lost, out.ledger.shards);
    EXPECT_EQ(out.ledger.dispatched, 0u);
    EXPECT_EQ(coord.workers().aliveCount(), 0u);
    ASSERT_EQ(out.outcomes.size(), batch.size());
    for (std::size_t r = 0; r < batch.size(); ++r) {
        const serve::RequestOutcome &o = out.outcomes[r];
        EXPECT_EQ(static_cast<int>(o.status),
                  static_cast<int>(serve::RequestStatus::Partial))
            << r;
        EXPECT_EQ(o.trialsDone, 0u) << r;
        ASSERT_EQ(o.trialDone.size(), o.trialsRequested) << r;
        for (const std::uint8_t d : o.trialDone)
            EXPECT_EQ(d, 0) << r;
    }
}

/**
 * A worker that handshakes correctly, then sits on every sweep
 * request forever -- the straggler the hedging path exists for.
 */
class StallWorker
{
  public:
    StallWorker()
    {
        listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = 0;
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::bind(listenFd,
                         reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listenFd, 8), 0);
        socklen_t len = sizeof(addr);
        ::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        boundPort = ntohs(addr.sin_port);
        acceptor = std::thread([this] { acceptLoop(); });
    }

    ~StallWorker()
    {
        stopped.store(true);
        ::shutdown(listenFd, SHUT_RDWR);
        ::close(listenFd);
        {
            std::lock_guard<std::mutex> lock(mutex);
            for (const int fd : conns)
                ::shutdown(fd, SHUT_RDWR);
        }
        acceptor.join();
        for (std::thread &t : serveThreads)
            t.join();
        for (const int fd : conns)
            ::close(fd);
    }

    std::uint16_t port() const { return boundPort; }

    /** Sweep requests received (and stalled on) so far. */
    std::uint64_t stalledRequests() const { return stalledCount.load(); }

  private:
    void
    acceptLoop()
    {
        for (;;) {
            const int c = ::accept(listenFd, nullptr, nullptr);
            if (c < 0)
                return;
            std::lock_guard<std::mutex> lock(mutex);
            conns.push_back(c);
            serveThreads.emplace_back([this, c] { serve(c); });
        }
    }

    void
    serve(int fd)
    {
        std::string buffer;
        char chunk[4096];
        while (!stopped.load()) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return;
            buffer.append(chunk, static_cast<std::size_t>(n));
            std::size_t nl;
            while ((nl = buffer.find('\n')) != std::string::npos) {
                const std::string line = buffer.substr(0, nl);
                buffer.erase(0, nl + 1);
                net::WireRequest rq;
                std::string error;
                if (!net::parseRequest(line, rq, error))
                    continue;
                if (rq.kind == net::QueryKind::Info) {
                    net::InfoReply info;
                    info.threads = 1;
                    info.queueCapacity = 1;
                    std::string reply = net::encodeInfo(rq.id, info);
                    reply.push_back('\n');
                    (void)!::send(fd, reply.data(), reply.size(),
                                  MSG_NOSIGNAL);
                } else {
                    stalledCount.fetch_add(1);
                    // ... and never answer: the stall.
                }
            }
        }
    }

    int listenFd = -1;
    std::uint16_t boundPort = 0;
    std::thread acceptor;
    std::vector<std::thread> serveThreads;
    std::vector<int> conns;
    std::mutex mutex;
    std::atomic<bool> stopped{false};
    std::atomic<std::uint64_t> stalledCount{0};
};

TEST(Dist, StragglersAreHedgedOntoIdleWorkersFirstResponseWins)
{
    // One real worker, one black hole that accepts shards and never
    // answers. With hedging on, the idle real worker duplicates the
    // stalled shards and the batch completes bit-identically; without
    // the hedge it would sit out the full shard deadline.
    const std::vector<net::WireRequest> batch = {
        skewRequest(6, 6, 512, 32)}; // 16 shards
    const LocalReference ref(batch);

    StallWorker staller;
    Fleet fleet(1);
    std::vector<dist::WorkerEndpoint> eps = {
        dist::WorkerEndpoint{"127.0.0.1", staller.port()},
        fleet.endpoints[0]};
    dist::DistConfig cfg = testConfig(eps);
    cfg.hedge = true;
    cfg.hedgeAfterSeconds = 0.02;
    cfg.shardDeadlineSeconds = 30.0; // hedging, not timeout, must win
    dist::Coordinator coord(cfg);

    const auto t0 = std::chrono::steady_clock::now();
    const dist::DistOutcome out = coord.run(batch);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    EXPECT_TRUE(out.ledger.balanced());
    EXPECT_EQ(out.ledger.completed, out.ledger.shards);
    EXPECT_EQ(out.ledger.lost, 0u);
    if (staller.stalledRequests() > 0) {
        EXPECT_GT(out.ledger.hedged, 0u);
    }
    EXPECT_LT(seconds, 20.0); // far below the shard deadline
    expectBitIdentical(out.outcomes[0], ref.out.outcomes[0], 0);
}

TEST(Dist, BatchDeadlineYieldsPartialWithExactMask)
{
    // A batch that cannot finish in time must come back Partial with
    // a truthful per-trial mask and a balanced ledger -- and whatever
    // trials did finish must carry the local run's exact bytes.
    const std::vector<net::WireRequest> batch = {
        skewRequest(6, 6, 200000, 100)}; // 2000 shards, ~seconds
    const LocalReference ref(batch);

    Fleet fleet(1);
    dist::DistConfig cfg = testConfig(fleet.endpoints);
    cfg.hedge = false;
    dist::Coordinator coord(cfg);
    dist::DistOptions opts;
    // Far below the batch's run time on any host; the assertions below
    // also hold when the deadline strikes before the first shard.
    opts.deadlineSeconds = 0.02;
    const dist::DistOutcome out = coord.run(batch, opts);

    EXPECT_TRUE(out.deadlineExpired);
    EXPECT_TRUE(out.ledger.balanced());
    EXPECT_GT(out.ledger.lost, 0u);
    const serve::RequestOutcome &o = out.outcomes[0];
    ASSERT_EQ(static_cast<int>(o.status),
              static_cast<int>(serve::RequestStatus::Partial));
    ASSERT_EQ(o.trialDone.size(), o.trialsRequested);
    std::size_t done = 0;
    for (std::size_t i = 0; i < o.trialDone.size(); ++i) {
        if (!o.trialDone[i])
            continue;
        ++done;
        ASSERT_EQ(o.skew.samples[i],
                  ref.out.outcomes[0].skew.samples[i])
            << i;
    }
    EXPECT_EQ(done, o.trialsDone);
}

} // namespace
