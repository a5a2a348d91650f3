/**
 * @file
 * Tests for the network front end: the wire protocol (round trips,
 * rejection of malformed requests) and the loopback server
 * (bit-identity with direct SweepService runs at several pool widths,
 * a pipelined skew/resilience mix over two connections answered
 * exactly once and bit-identically, admission control under burst,
 * deadline propagation, graceful shutdown).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "clocktree/builders.hh"
#include "layout/generators.hh"
#include "mc/resilience.hh"
#include "mc/sweeps.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "serve/sweep_service.hh"

namespace
{

using namespace vsync;

const core::WireDelay kDelay{0.05, 0.005};

/** A tiny blocking line-oriented client for driving the server. */
class TestClient
{
  public:
    explicit TestClient(std::uint16_t port)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }

    ~TestClient()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool connected() const { return fd >= 0; }

    bool
    sendLine(std::string line)
    {
        line.push_back('\n');
        const char *data = line.data();
        std::size_t len = line.size();
        while (len > 0) {
            const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
            if (n < 0)
                return false;
            data += n;
            len -= static_cast<std::size_t>(n);
        }
        return true;
    }

    /** One line, or empty string on timeout/EOF. */
    std::string
    recvLine(int timeout_ms = 30000)
    {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(timeout_ms);
        for (;;) {
            const std::size_t nl = buffer.find('\n');
            if (nl != std::string::npos) {
                std::string line = buffer.substr(0, nl);
                buffer.erase(0, nl + 1);
                return line;
            }
            const auto remaining =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
            if (remaining <= 0)
                return "";
            pollfd pfd{fd, POLLIN, 0};
            if (::poll(&pfd, 1, static_cast<int>(remaining)) <= 0)
                return "";
            char chunk[4096];
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return "";
            buffer.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd = -1;
    std::string buffer;
};

net::WireResponse
parsedOk(const std::string &line)
{
    net::WireResponse rsp;
    std::string error;
    EXPECT_TRUE(net::parseResponse(line, rsp, error))
        << error << " in: " << line;
    return rsp;
}

TEST(Protocol, RequestRoundTripsIncluding64BitSeeds)
{
    net::WireRequest rq;
    rq.id = 7;
    rq.kind = net::QueryKind::Resilience;
    rq.scheme = net::WireScheme::Trix;
    rq.rows = 5;
    rq.cols = 9;
    rq.faultRate = 0.125;
    // A seed above 2^53: a double-typed JSON parser would corrupt it.
    rq.seed = 0xdeadbeefcafef00dULL;
    rq.trials = 321;
    rq.grain = 7;
    rq.delay = core::WireDelay{0.07, 0.003};
    rq.deadlineMs = 250.5;

    net::WireRequest back;
    std::string error;
    ASSERT_TRUE(net::parseRequest(net::encodeRequest(rq), back, error))
        << error;
    EXPECT_EQ(back.id, 7u);
    EXPECT_EQ(back.kind, net::QueryKind::Resilience);
    EXPECT_EQ(back.scheme, net::WireScheme::Trix);
    EXPECT_EQ(back.rows, 5);
    EXPECT_EQ(back.cols, 9);
    EXPECT_EQ(back.faultRate, 0.125);
    EXPECT_EQ(back.seed, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(back.trials, 321u);
    EXPECT_EQ(back.grain, 7u);
    EXPECT_EQ(back.delay.m, 0.07);
    EXPECT_EQ(back.delay.eps, 0.003);
    EXPECT_EQ(back.deadlineMs, 250.5);
}

TEST(Protocol, DefaultsApplyForOmittedKeys)
{
    net::WireRequest rq;
    std::string error;
    ASSERT_TRUE(net::parseRequest(R"({"kind":"skew"})", rq, error))
        << error;
    EXPECT_EQ(rq.kind, net::QueryKind::Skew);
    EXPECT_EQ(rq.scheme, net::WireScheme::HTree);
    EXPECT_EQ(rq.rows, 4);
    EXPECT_EQ(rq.cols, 4);
    EXPECT_EQ(rq.trials, 256u);
    EXPECT_EQ(rq.deadlineMs, infinity);
    // "dist" is accepted as a synonym for "scheme".
    ASSERT_TRUE(net::parseRequest(R"({"dist":"spine"})", rq, error));
    EXPECT_EQ(rq.scheme, net::WireScheme::Spine);
}

TEST(Protocol, RejectsMalformedAndInvalidRequests)
{
    net::WireRequest rq;
    std::string error;
    const char *bad[] = {
        "",                                    // no object
        "{",                                   // truncated
        R"({"kind":"skew"} trailing)",         // garbage after object
        R"({"turbo":true})",                   // unknown key
        R"({"kind":"warp"})",                  // unknown kind
        R"({"scheme":"mesh"})",                // unknown scheme
        R"({"rows":0})",                       // below range
        R"({"rows":513})",                     // above range
        R"({"rows":300,"cols":300})",          // too many cells
        R"({"trials":0})",                     // zero trials
        R"({"grain":0})",                      // zero grain
        R"({"fault_rate":1.5})",               // rate out of range
        R"({"m":0})",                          // degenerate delay
        R"({"eps":-0.1})",                     // negative spread
        R"({"kind":"skew","scheme":"trix"})",  // trix has no tree
        R"({"kind":"skew","fault_rate":0.1})", // wrong family
        "{\"kind\":\"sk\\u0065w\"}",           // escapes rejected
        R"({"seed":-1})",                      // negative uint
    };
    for (const char *line : bad) {
        EXPECT_FALSE(net::parseRequest(line, rq, error)) << line;
        EXPECT_FALSE(error.empty()) << line;
    }
}

TEST(Protocol, BadRequestRepliesKeepTheParsedId)
{
    // An id parsed before the error survives, so the client can
    // correlate the bad_request reply.
    net::WireRequest rq;
    std::string error;
    EXPECT_FALSE(
        net::parseRequest(R"({"id":42,"kind":"warp"})", rq, error));
    EXPECT_EQ(rq.id, 42u);
}

TEST(Protocol, OutcomeRoundTripsBitExactly)
{
    serve::RequestOutcome o;
    o.status = serve::RequestStatus::Partial;
    o.trialsRequested = 4;
    o.trialsDone = 3;
    o.trialDone = {1, 0, 1, 1};
    o.skew.samples = {0.1, 0.0, 1.0 / 3.0, 2.0e-17};
    for (std::size_t i = 0; i < 4; ++i)
        if (o.trialDone[i])
            o.skew.stat.add(o.skew.samples[i]);

    net::WireRequest rq;
    rq.id = 12;
    const net::WireResponse rsp =
        parsedOk(net::encodeOutcome(rq, o, 1.25));
    EXPECT_EQ(rsp.id, 12u);
    EXPECT_TRUE(rsp.ok);
    EXPECT_FALSE(rsp.complete);
    EXPECT_EQ(rsp.trialsDone, 3u);
    EXPECT_EQ(rsp.trialsRequested, 4u);
    EXPECT_EQ(rsp.mean, o.skew.stat.mean());
    EXPECT_EQ(rsp.stddev, o.skew.stat.stddev());
    ASSERT_EQ(rsp.samples.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(rsp.samples[i], o.skew.samples[i]) << i;
    EXPECT_EQ(rsp.trialDone, o.trialDone);
    EXPECT_EQ(rsp.serverMs, 1.25);

    const net::WireResponse err = parsedOk(
        net::encodeError(9, net::errOverloaded, "queue full"));
    EXPECT_FALSE(err.ok);
    EXPECT_EQ(err.id, 9u);
    EXPECT_EQ(err.error, net::errOverloaded);
    EXPECT_EQ(err.detail, "queue full");
}

/** The canonical request most server tests use. */
net::WireRequest
skewRequest(std::uint64_t id)
{
    net::WireRequest rq;
    rq.id = id;
    rq.kind = net::QueryKind::Skew;
    rq.scheme = net::WireScheme::HTree;
    rq.rows = 6;
    rq.cols = 6;
    rq.seed = 0xfeedULL;
    rq.trials = 48;
    rq.grain = 4;
    rq.delay = kDelay;
    return rq;
}

TEST(Server, ServedSkewIsBitIdenticalToDirectServiceAtAllWidths)
{
    // The server's reply must carry exactly the numbers a direct
    // in-process sweep computes -- same samples, bit for bit, through
    // the wire encoding -- whatever the compute pool width.
    const layout::Layout l = layout::meshLayout(6, 6);
    const auto tree = clocktree::buildHTreeGrid(l, 6, 6);
    mc::McConfig cfg;
    cfg.seed = 0xfeedULL;
    cfg.trials = 48;
    cfg.grain = 4;
    const mc::McResult ref = mc::skewSweep(l, tree, kDelay, cfg);

    for (const unsigned tc : {1u, 2u, 8u}) {
        net::ServerConfig sc;
        sc.computeThreads = tc;
        net::ScenarioServer server(sc);
        ASSERT_TRUE(server.start());

        TestClient client(server.port());
        ASSERT_TRUE(client.connected());
        ASSERT_TRUE(client.sendLine(net::encodeRequest(skewRequest(1))));
        const net::WireResponse rsp = parsedOk(client.recvLine());

        EXPECT_TRUE(rsp.ok) << tc;
        EXPECT_TRUE(rsp.complete) << tc;
        EXPECT_EQ(rsp.trialsDone, 48u) << tc;
        ASSERT_EQ(rsp.samples.size(), ref.samples.size()) << tc;
        for (std::size_t i = 0; i < ref.samples.size(); ++i)
            EXPECT_EQ(rsp.samples[i], ref.samples[i]) << tc << " " << i;
        EXPECT_EQ(rsp.mean, ref.stat.mean()) << tc;
        EXPECT_EQ(rsp.stddev, ref.stat.stddev()) << tc;
        EXPECT_EQ(rsp.minValue, ref.stat.min()) << tc;
        EXPECT_EQ(rsp.maxValue, ref.stat.max()) << tc;
        server.stop();
    }
}

TEST(Server, ServedResilienceMatchesDirectRunForTreeAndTrix)
{
    const layout::Layout l = layout::meshLayout(4, 4);
    mc::McConfig cfg;
    cfg.seed = 99;
    cfg.trials = 32;
    cfg.grain = 4;
    mc::ResilienceConfig rc; // defaults match the wire defaults

    net::ScenarioServer server;
    ASSERT_TRUE(server.start());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());

    const std::pair<net::WireScheme, mc::DistributionKind> kinds[] = {
        {net::WireScheme::HTree, mc::DistributionKind::HTree},
        {net::WireScheme::Trix, mc::DistributionKind::TrixGrid},
    };
    for (const auto &[scheme, kind] : kinds) {
        const mc::ResiliencePoint ref =
            mc::resilienceAtRate(l, 4, 4, kind, 0.05, rc, cfg);

        net::WireRequest rq;
        rq.id = 3;
        rq.kind = net::QueryKind::Resilience;
        rq.scheme = scheme;
        rq.rows = 4;
        rq.cols = 4;
        rq.faultRate = 0.05;
        rq.seed = 99;
        rq.trials = 32;
        rq.grain = 4;
        ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
        const net::WireResponse rsp = parsedOk(client.recvLine());

        EXPECT_TRUE(rsp.ok);
        EXPECT_TRUE(rsp.complete);
        ASSERT_EQ(rsp.samples.size(), ref.maxCommSkew.samples.size());
        for (std::size_t i = 0; i < rsp.samples.size(); ++i)
            EXPECT_EQ(rsp.samples[i], ref.maxCommSkew.samples[i]) << i;
        ASSERT_EQ(rsp.clockedSamples.size(),
                  ref.clockedFraction.samples.size());
        for (std::size_t i = 0; i < rsp.clockedSamples.size(); ++i)
            EXPECT_EQ(rsp.clockedSamples[i],
                      ref.clockedFraction.samples[i])
                << i;
        EXPECT_EQ(rsp.meanFaults, ref.meanFaults);
    }
    server.stop();
}

TEST(Server, OverCapacityBurstIsShedLoudlyNeverSilently)
{
    // With a 1-deep admission queue and the dispatcher pinned by a
    // slow request, a burst must get immediate "overloaded" replies --
    // every line answered, nothing hangs, nothing vanishes.
    obs::MetricsRegistry reg;
    net::ServerConfig sc;
    sc.computeThreads = 1;
    sc.admissionCapacity = 1;
    sc.metrics = &reg;
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());

    // Poll the server's own metrics instead of sleeping: a fixed delay
    // can land before or after the state it waits for.
    const auto waitFor = [](const auto &ready) {
        const auto giveUp =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!ready()) {
            if (std::chrono::steady_clock::now() >= giveUp)
                return false;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return true;
    };
    const obs::Counter &accepted = reg.counter("net.requests.accepted");
    const obs::Counter &shedCount = reg.counter("net.requests.shed");

    // The pin would run for many seconds; the test cancels it once the
    // burst is in, so it outlasts the burst on any host.
    TestClient slow(server.port());
    ASSERT_TRUE(slow.connected());
    net::WireRequest pin = skewRequest(100);
    pin.rows = 128;
    pin.cols = 128;
    pin.trials = 1u << 16;
    pin.grain = 1;
    ASSERT_TRUE(slow.sendLine(net::encodeRequest(pin)));
    // The pin holds the one compute thread once its sweep job has
    // started on the service pool (after run() re-armed cancel()).
    const obs::Counter &jobs = reg.counter("serve.pool.jobs");
    ASSERT_TRUE(waitFor([&] { return jobs.value() >= 1; }));

    constexpr std::size_t burst = 16;
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    for (std::size_t i = 0; i < burst; ++i) {
        net::WireRequest rq = skewRequest(i);
        rq.trials = 1;
        ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
    }
    // Every burst line parsed (admitted or shed): release the pin.
    ASSERT_TRUE(waitFor([&] {
        return accepted.value() + shedCount.value() == burst + 1;
    }));
    server.service().cancel();

    std::size_t completed = 0;
    std::size_t shed = 0;
    std::vector<std::uint8_t> answered(burst, 0);
    for (std::size_t i = 0; i < burst; ++i) {
        const std::string line = client.recvLine();
        ASSERT_FALSE(line.empty()) << "burst reply " << i << " missing";
        const net::WireResponse rsp = parsedOk(line);
        ASSERT_LT(rsp.id, burst);
        EXPECT_FALSE(answered[rsp.id]) << rsp.id;
        answered[rsp.id] = 1;
        if (rsp.ok) {
            ++completed;
        } else {
            EXPECT_EQ(rsp.error, net::errOverloaded) << rsp.id;
            ++shed;
        }
    }
    EXPECT_EQ(completed + shed, burst);
    EXPECT_GE(shed, 1u);

    EXPECT_TRUE(parsedOk(slow.recvLine()).ok);
    server.stop();

    // The ledger balances: every parsed line was admitted or shed.
    EXPECT_EQ(reg.counter("net.requests.accepted").value() +
                  reg.counter("net.requests.shed").value(),
              burst + 1);
    EXPECT_EQ(reg.counter("net.requests.shed").value(),
              static_cast<std::uint64_t>(shed));
    EXPECT_EQ(reg.counter("net.requests.completed").value(),
              completed + 1);
}

TEST(Server, WireDeadlineZeroFailsFastAsEmptyPartial)
{
    net::ScenarioServer server;
    ASSERT_TRUE(server.start());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());

    net::WireRequest rq = skewRequest(5);
    rq.deadlineMs = 0.0;
    ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
    const net::WireResponse rsp = parsedOk(client.recvLine());

    EXPECT_TRUE(rsp.ok);
    EXPECT_FALSE(rsp.complete);
    EXPECT_EQ(rsp.trialsDone, 0u);
    EXPECT_EQ(rsp.trialsRequested, 48u);
    ASSERT_EQ(rsp.trialDone.size(), 48u);
    for (const auto d : rsp.trialDone)
        EXPECT_EQ(d, 0);
    // No trial ran, so no statistics were emitted.
    EXPECT_EQ(rsp.mean, 0.0);
    server.stop();
}

TEST(Server, BadLinesGetErrorsAndTheConnectionSurvives)
{
    net::ScenarioServer server;
    ASSERT_TRUE(server.start());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());

    ASSERT_TRUE(client.sendLine("this is not json"));
    const net::WireResponse bad = parsedOk(client.recvLine());
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.error, net::errBadRequest);

    net::WireRequest rq = skewRequest(8);
    rq.trials = 2;
    ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
    EXPECT_TRUE(parsedOk(client.recvLine()).ok);
    server.stop();
}

TEST(Server, OversizedLinesAreRefusedLoudlyAndTheConnectionSurvives)
{
    net::ServerConfig sc;
    sc.maxLineBytes = 256; // small cap so the test stays cheap
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());

    // A line longer than the cap must get a too_large error, not an
    // unbounded buffer or a silent hangup.
    ASSERT_TRUE(client.sendLine(std::string(1024, 'x')));
    const net::WireResponse big = parsedOk(client.recvLine());
    EXPECT_FALSE(big.ok);
    EXPECT_EQ(big.error, net::errTooLarge);

    // The reader resynchronises on the next newline: a well-formed
    // request on the same connection still succeeds.
    net::WireRequest rq = skewRequest(21);
    rq.trials = 2;
    ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
    const net::WireResponse rsp = parsedOk(client.recvLine());
    EXPECT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.id, 21u);
    server.stop();
}

TEST(Server, InfoPingReportsProtocolAndPoolShape)
{
    net::ServerConfig sc;
    sc.computeThreads = 3;
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());

    ASSERT_TRUE(client.sendLine("{\"id\":7,\"kind\":\"info\"}"));
    const net::WireResponse rsp = parsedOk(client.recvLine());
    EXPECT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.id, 7u);
    EXPECT_EQ(rsp.proto, net::protocolVersion);
    EXPECT_EQ(rsp.threads, 3u);
    EXPECT_GT(rsp.queueCapacity, 0u);
    EXPECT_FALSE(rsp.draining);
    server.stop();
}

TEST(Server, GracefulStopDrainsInFlightThenRefusesConnections)
{
    net::ServerConfig sc;
    sc.computeThreads = 1;
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());
    const std::uint16_t port = server.port();

    TestClient client(port);
    ASSERT_TRUE(client.connected());
    net::WireRequest rq = skewRequest(77);
    rq.trials = 2000;
    rq.grain = 1;
    ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
    // Give the request time to be admitted (possibly mid-compute).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    server.stop(); // must drain: the reply is written before sockets close

    const std::string line = client.recvLine(5000);
    ASSERT_FALSE(line.empty()) << "in-flight request lost by stop()";
    const net::WireResponse rsp = parsedOk(line);
    EXPECT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.id, 77u);
    // Complete on a fast machine; Partial if the drain expired it --
    // either way the request was answered, never dropped.

    TestClient late(port);
    std::string probe;
    if (late.connected()) {
        // A TCP connect may still succeed spuriously right after
        // close on some kernels; a request must get nothing back.
        late.sendLine(net::encodeRequest(skewRequest(1)));
        probe = late.recvLine(200);
    }
    EXPECT_TRUE(probe.empty());
}

TEST(Server, ExportsNetMetrics)
{
    obs::MetricsRegistry reg;
    net::ServerConfig sc;
    sc.metrics = &reg;
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());
    {
        TestClient client(server.port());
        ASSERT_TRUE(client.connected());
        net::WireRequest rq = skewRequest(1);
        rq.trials = 2;
        ASSERT_TRUE(client.sendLine(net::encodeRequest(rq)));
        EXPECT_TRUE(parsedOk(client.recvLine()).ok);
    }
    server.stop();

    EXPECT_EQ(reg.counter("net.connections.accepted").value(), 1u);
    EXPECT_EQ(reg.counter("net.requests.accepted").value(), 1u);
    EXPECT_EQ(reg.counter("net.requests.completed").value(), 1u);
    EXPECT_EQ(reg.counter("net.requests.shed").value(), 0u);
    EXPECT_GT(reg.counter("net.bytes.in").value(), 0u);
    EXPECT_GT(reg.counter("net.bytes.out").value(), 0u);
    EXPECT_EQ(reg.histogram("net.request.latency_ms", {}).totalCount(),
              1u);
    EXPECT_EQ(reg.gauge("net.connections.active").value(), 0.0);
    // The embedded service's pool gauges ride along.
    EXPECT_GE(reg.counter("serve.pool.jobs").value(), 1u);
}

TEST(Server, PipelinedMixOverTwoConnectionsIsAnsweredOnceBitIdentically)
{
    // Two connections each pipeline a cycle of the four served
    // (family, distribution) pairs without waiting for a reply. Every
    // line must be answered exactly once, every ok reply must carry
    // exactly the numbers a direct mc:: run computes, and the server's
    // ledger must account for every line: admitted or shed, loudly.
    std::vector<net::WireRequest> mix;
    {
        net::WireRequest rq;
        rq.kind = net::QueryKind::Skew;
        rq.scheme = net::WireScheme::HTree;
        rq.rows = rq.cols = 8;
        rq.seed = 0xbe7ULL;
        rq.trials = 8;
        rq.grain = 4;
        rq.delay = kDelay;
        mix.push_back(rq);
        rq.scheme = net::WireScheme::Spine;
        mix.push_back(rq);
        rq.kind = net::QueryKind::Resilience;
        rq.scheme = net::WireScheme::HTree;
        rq.rows = rq.cols = 6;
        rq.faultRate = 0.05;
        mix.push_back(rq);
        rq.scheme = net::WireScheme::Trix;
        mix.push_back(rq);
    }

    // The references, built the way the server builds its scenarios:
    // mesh layout, H-tree or spine builder, default physics.
    struct Reference
    {
        std::vector<double> samples;
        std::vector<double> clockedSamples;
        double mean = 0.0;
        double stddev = 0.0;
    };
    std::vector<Reference> refs;
    for (const net::WireRequest &rq : mix) {
        mc::McConfig cfg;
        cfg.seed = rq.seed;
        cfg.trials = rq.trials;
        cfg.grain = rq.grain;
        const layout::Layout l = layout::meshLayout(rq.rows, rq.cols);
        Reference ref;
        if (rq.kind == net::QueryKind::Skew) {
            const auto tree =
                rq.scheme == net::WireScheme::HTree
                    ? clocktree::buildHTreeGrid(l, rq.rows, rq.cols)
                    : clocktree::buildSpine(l);
            const mc::McResult r = mc::skewSweep(l, tree, rq.delay, cfg);
            ref.samples = r.samples;
            ref.mean = r.stat.mean();
            ref.stddev = r.stat.stddev();
        } else {
            mc::ResilienceConfig rc;
            rc.delay = rq.delay;
            const mc::ResiliencePoint p = mc::resilienceAtRate(
                l, rq.rows, rq.cols,
                rq.scheme == net::WireScheme::Trix
                    ? mc::DistributionKind::TrixGrid
                    : mc::DistributionKind::HTree,
                rq.faultRate, rc, cfg);
            ref.samples = p.maxCommSkew.samples;
            ref.clockedSamples = p.clockedFraction.samples;
            ref.mean = p.maxCommSkew.stat.mean();
            ref.stddev = p.maxCommSkew.stat.stddev();
        }
        refs.push_back(std::move(ref));
    }

    obs::MetricsRegistry reg;
    net::ServerConfig sc;
    sc.computeThreads = 2;
    sc.metrics = &reg;
    net::ScenarioServer server(sc);
    ASSERT_TRUE(server.start());

    // Connection c sends ids [c * perConnection, (c + 1) * perConnection);
    // id i uses template i % 4, so both connections cycle the whole mix.
    constexpr std::size_t connections = 2;
    constexpr std::size_t perConnection = 24;
    constexpr std::size_t lines = connections * perConnection;
    TestClient clients[connections] = {TestClient(server.port()),
                                       TestClient(server.port())};
    for (std::size_t c = 0; c < connections; ++c) {
        ASSERT_TRUE(clients[c].connected()) << c;
        for (std::size_t j = 0; j < perConnection; ++j) {
            const std::size_t id = c * perConnection + j;
            net::WireRequest rq = mix[id % mix.size()];
            rq.id = id;
            ASSERT_TRUE(clients[c].sendLine(net::encodeRequest(rq))) << id;
        }
    }

    std::vector<std::uint8_t> answered(lines, 0);
    std::vector<std::size_t> verified(mix.size(), 0);
    for (std::size_t c = 0; c < connections; ++c) {
        for (std::size_t j = 0; j < perConnection; ++j) {
            const std::string line = clients[c].recvLine();
            ASSERT_FALSE(line.empty())
                << "connection " << c << " reply " << j << " missing";
            const net::WireResponse rsp = parsedOk(line);
            ASSERT_GE(rsp.id, c * perConnection) << c;
            ASSERT_LT(rsp.id, (c + 1) * perConnection) << c;
            EXPECT_FALSE(answered[rsp.id]) << "id " << rsp.id;
            answered[rsp.id] = 1;
            if (!rsp.ok) {
                EXPECT_EQ(rsp.error, net::errOverloaded) << rsp.id;
                continue;
            }
            const std::size_t t = rsp.id % mix.size();
            const Reference &ref = refs[t];
            EXPECT_TRUE(rsp.complete) << rsp.id;
            EXPECT_EQ(rsp.samples, ref.samples) << rsp.id;
            EXPECT_EQ(rsp.clockedSamples, ref.clockedSamples) << rsp.id;
            EXPECT_EQ(rsp.mean, ref.mean) << rsp.id;
            EXPECT_EQ(rsp.stddev, ref.stddev) << rsp.id;
            ++verified[t];
        }
    }
    server.stop();

    // The admission queue is deeper than the whole burst, so every
    // template was served and checked at least once.
    for (std::size_t t = 0; t < mix.size(); ++t)
        EXPECT_GE(verified[t], 1u) << "template " << t;
    EXPECT_EQ(reg.counter("net.requests.accepted").value() +
                  reg.counter("net.requests.shed").value(),
              lines);
}

} // namespace
