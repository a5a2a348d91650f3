/**
 * @file
 * serve_open_loop: an in-process net::ScenarioServer on loopback,
 * driven open loop at a few offered rates. Most requests are small
 * skew (8x8 H-tree / spine) and resilience (6x6 H-tree / TRIX) queries
 * on hot scenarios, whose compute is under a millisecond, so protocol
 * parsing and rendering, admission waits and cache lookups are a real
 * share of latency. One request in twenty is cold: it names one of
 * twelve mesh sizes, more than the kernel cache has room for, so every
 * cold request compiles and writes a cache entry instead of reading
 * one. The rate steps expose queueing.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "bench.hh"
#include "client.hh"
#include "common/rng.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "reference.hh"
#include "serve/sweep_service.hh"

namespace perfbench
{

namespace
{

using namespace vsync;

/** Distinct seeds per request shape: hot queries repeat exactly. */
constexpr std::size_t seedsPerShape = 8;
/** Hot shapes come first in the shape table; the rest are cold. */
constexpr std::size_t hotShapes = 4;
constexpr std::size_t coldShapes = 12;
/** Kernel cache capacity: the 4 hot kernels plus 4 slots, fewer than
 *  the 12 cold sizes cycle through, so every cold request misses. */
constexpr std::size_t cacheCapacity = 8;
/**
 * Request shapes in arrival order, repeated: 14 skew, 5 resilience
 * and 1 cold request in every 20. A fixed pattern keeps the mix -- and
 * so the offered work -- identical across seeds; the seed picks the
 * pattern phase and each request's seed.
 */
constexpr std::array<int, 20> pattern{0, 1, 0, 2, 1, 0, 1, 3, 0, 1,
                                      0, 2, 1, 0, 1, 3, 0, 1, 2, -1};
/** Latency limit on p99 for a rate step to count as sustained. */
constexpr double p99LimitMs = 50.0;
/** Rate steps, as fractions of the measured closed-loop capacity. */
constexpr std::array<double, 3> stepFractions{0.55, 0.7, 0.85};
/** The fixed rate p50/p99 are reported at (requests per second); a
 *  host with less than twice this capacity runs at half its capacity. */
constexpr double nominalRps = 400.0;

struct Request
{
    std::size_t shape = 0;
    std::size_t seedIndex = 0;
};

class ServeSection : public Section
{
  public:
    explicit ServeSection(const Env &e);
    ~ServeSection() override { server.stop(); }

    void begin() override;
    void measure(double seconds) override;
    double finish() override;
    void layers(double seconds) override;

  private:
    struct Step
    {
        double rps = 0.0;
        std::vector<Request> requests;
        OpenLoopResult result;
    };

    net::WireRequest wire(const Request &r, std::uint64_t id) const;
    std::vector<Request> stream(std::size_t n, std::uint64_t salt);
    std::vector<std::string> encode(const std::vector<Request> &reqs) const;
    const serve::RequestOutcome &reference(const Request &r);
    bool matches(const Request &r, const net::WireResponse &rsp);
    Step offer(double rps, double seconds, std::uint64_t salt);
    bool sustained(const Step &s) const;
    void checkWarmUp();
    void checkAccounting();

    Env env;
    obs::MetricsRegistry metrics;
    net::ScenarioServer server;
    unsigned connections = 1;
    std::vector<net::WireRequest> shapes;
    std::size_t coldCursor = 0;
    std::uint64_t linesSent = 0;
    std::vector<Request> warm;
    std::vector<net::WireResponse> warmReplies;

    serve::SweepService refService;
    LocalScenarios local;
    std::map<std::pair<std::size_t, std::size_t>, serve::RequestOutcome>
        refs;

    /** Samples of the rounds since begin(). */
    std::uint64_t rounds = 0;
    std::vector<double> capacityBursts;
    std::vector<double> nominalMs;
    std::vector<double> coldMs;
    std::vector<double> lateMs;
    std::vector<double> maxRps;
    std::size_t refused = 0;
    /** Nominal replies kept for the traced queue-wait split. */
    std::vector<std::pair<std::size_t, double>> nominalServerMs;
    std::vector<double> nominalTransportMs;
};

net::ServerConfig
serverConfig(const Env &env, obs::MetricsRegistry &metrics)
{
    net::ServerConfig sc;
    sc.computeThreads = env.width;
    sc.cacheCapacity = cacheCapacity;
    sc.metrics = &metrics;
    return sc;
}

ServeSection::ServeSection(const Env &e)
    : env(e), server(serverConfig(e, metrics)),
      connections(std::min(4u, e.width)),
      refService(serve::ServiceConfig{e.width, 64, nullptr})
{
    net::WireRequest rq;
    rq.kind = net::QueryKind::Skew;
    rq.rows = rq.cols = 8;
    rq.trials = 64;
    rq.grain = 16;
    rq.scheme = net::WireScheme::HTree;
    shapes.push_back(rq);
    rq.scheme = net::WireScheme::Spine;
    shapes.push_back(rq);
    rq.kind = net::QueryKind::Resilience;
    rq.rows = rq.cols = 6;
    rq.faultRate = 0.02;
    rq.trials = 16;
    rq.grain = 8;
    rq.scheme = net::WireScheme::HTree;
    shapes.push_back(rq);
    rq.scheme = net::WireScheme::Trix;
    shapes.push_back(rq);
    for (std::size_t i = 0; i < coldShapes; ++i) {
        net::WireRequest cold;
        cold.kind = net::QueryKind::Skew;
        cold.scheme = net::WireScheme::HTree;
        cold.rows = cold.cols = 10 + static_cast<int>(i);
        cold.trials = 16;
        cold.grain = 16;
        shapes.push_back(cold);
    }

    env.report->check(server.start(), "serve: server failed to start");
    // Warm every shape once, so the hot kernels are cached before any
    // timing; the replies are checked (and digested) by measure().
    for (std::size_t s = 0; s < shapes.size(); ++s)
        warm.push_back(Request{s, 0});
    closedLoopRate(server.port(), 1, encode(warm), warmReplies);
    linesSent += warm.size();
}

void
ServeSection::checkWarmUp()
{
    Digest d;
    bool ok = true;
    for (std::size_t i = 0; i < warm.size(); ++i) {
        ok = env.report->check(matches(warm[i], warmReplies[i]),
                               "serve: warm-up reply differs from the "
                               "in-process SweepService") &&
             ok;
        d.add(warmReplies[i].samples);
        d.add(warmReplies[i].clockedSamples);
    }
    env.report->op(ok);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "digest=%s shapes=%zu mean_skew_ns_8x8_htree=%.6f",
                  d.hex().c_str(), warm.size(), warmReplies[0].mean);
    env.report->outputs["serve"] = line;
}

net::WireRequest
ServeSection::wire(const Request &r, std::uint64_t id) const
{
    net::WireRequest rq = shapes[r.shape];
    rq.id = id;
    rq.seed = mixSeed(env.seed, 1000 + r.shape * seedsPerShape + r.seedIndex);
    return rq;
}

std::vector<Request>
ServeSection::stream(std::size_t n, std::uint64_t salt)
{
    Rng rng(mixSeed(env.seed, salt));
    const std::size_t phase = rng.uniformInt(pattern.size());
    std::vector<Request> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int p = pattern[(phase + i) % pattern.size()];
        out[i].shape = p >= 0 ? static_cast<std::size_t>(p)
                              : hotShapes + (coldCursor++ % coldShapes);
        out[i].seedIndex = rng.uniformInt(seedsPerShape);
    }
    return out;
}

std::vector<std::string>
ServeSection::encode(const std::vector<Request> &reqs) const
{
    std::vector<std::string> lines;
    lines.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        lines.push_back(net::encodeRequest(wire(reqs[i], i)));
    return lines;
}

const serve::RequestOutcome &
ServeSection::reference(const Request &r)
{
    const auto key = std::make_pair(r.shape, r.seedIndex);
    const auto found = refs.find(key);
    if (found != refs.end())
        return found->second;
    return refs[key] =
               refService.run({local.request(wire(r, 0))}).outcomes.at(0);
}

bool
ServeSection::matches(const Request &r, const net::WireResponse &rsp)
{
    return replyMatches(shapes[r.shape], rsp, reference(r));
}

ServeSection::Step
ServeSection::offer(double rps, double seconds, std::uint64_t salt)
{
    Step s;
    s.rps = rps;
    const std::size_t n =
        std::max<std::size_t>(100, static_cast<std::size_t>(rps * seconds));
    s.requests = stream(n, salt);
    const std::vector<std::string> lines = encode(s.requests);
    s.result = runOpenLoop(server.port(), connections, rps, lines, 5.0);
    linesSent += n;
    env.report->check(s.result.transportOk, "serve: transport failure");
    // Every reply that arrived, at any rate, must carry the reference
    // bytes; refusals are only allowed above the nominal rate.
    for (std::size_t i = 0; i < n; ++i)
        if (s.result.got[i] && s.result.responses[i].ok)
            env.report->check(matches(s.requests[i], s.result.responses[i]),
                              "serve: reply differs from the in-process "
                              "SweepService");
    return s;
}

bool
ServeSection::sustained(const Step &s) const
{
    const OpenLoopResult &r = s.result;
    if (r.shed || r.errors || r.lost || !r.transportOk)
        return false;
    const std::vector<double> lat = r.latencyMs();
    if (quantile(lat, 0.99) > p99LimitMs)
        return false;
    // A backlog that keeps growing shows as a last quarter much slower
    // than the first.
    const std::size_t q = lat.size() / 4;
    const std::vector<double> first(lat.begin(), lat.begin() + q);
    const std::vector<double> last(lat.end() - q, lat.end());
    return median(last) <= 2.0 * median(first) + 1.0;
}

void
ServeSection::checkAccounting()
{
    // The server counts a request completed just after writing its
    // reply, so give the last few counters a moment to land.
    const auto value = [&](const char *name) {
        return metrics.counter(name).value();
    };
    const Clock::time_point t0 = Clock::now();
    while (value("net.requests.completed") < value("net.requests.accepted") &&
           secondsSince(t0) < 2.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    env.report->check(value("net.requests.accepted") +
                              value("net.requests.shed") +
                              value("net.requests.bad") +
                              value("net.requests.too_large") ==
                          linesSent,
                      "serve: accepted + shed + bad != requests sent");
    env.report->check(value("net.requests.completed") ==
                          value("net.requests.accepted"),
                      "serve: an accepted request was never answered");
    env.report->check(value("net.requests.bad") == 0,
                      "serve: server rejected a request as malformed");
}

void
ServeSection::begin()
{
    rounds = 0;
    capacityBursts.clear();
    nominalMs.clear();
    coldMs.clear();
    lateMs.clear();
    maxRps.clear();
    refused = 0;
    nominalServerMs.clear();
    nominalTransportMs.clear();
}

void
ServeSection::measure(double seconds)
{
    if (!env.report->outputs.count("serve"))
        checkWarmUp();
    const std::uint64_t salt = 500 + 10 * rounds++;
    // Closed-loop capacity with 8 requests outstanding (the median of
    // every burst so far) sets the rate steps, so the steps load the
    // server alike on any host.
    const std::vector<Request> calib = stream(160, salt);
    std::vector<net::WireResponse> replies;
    capacityBursts.push_back(
        closedLoopRate(server.port(), 8, encode(calib), replies));
    linesSent += calib.size();
    bool ok = env.report->check(capacityBursts.back() > 0.0,
                                "serve: capacity probe failed");
    for (std::size_t i = 0; ok && i < calib.size(); ++i)
        ok = env.report->check(matches(calib[i], replies[i]),
                               "serve: capacity-probe reply differs");
    if (!ok)
        return;
    const double capacity = median(capacityBursts);

    const Step nominal = offer(std::min(nominalRps, capacity / 2),
                               0.6 * seconds, salt + 1);
    const OpenLoopResult &r = nominal.result;
    const std::vector<double> lat = r.latencyMs();
    const std::vector<double> late = r.lateMs();
    for (std::size_t i = 0; i < lat.size(); ++i) {
        nominalMs.push_back(lat[i]);
        lateMs.push_back(late[i]);
        if (nominal.requests[i].shape >= hotShapes)
            coldMs.push_back(lat[i]);
        env.report->op(std::isfinite(lat[i]));
        if (!std::isfinite(lat[i]))
            continue;
        // Traced runs record each request as spans timed by the client
        // threads: due -> reply, split at the actual send.
        const std::uint32_t op = env.tracer->newOp();
        const std::uint32_t id =
            env.tracer->add("serve.request", op, 0, r.due[i], r.received[i]);
        env.tracer->add("loadgen.send_wait", op, id, r.due[i], r.sent[i]);
        env.tracer->add("net.roundtrip", op, id, r.sent[i], r.received[i]);
        nominalServerMs.emplace_back(nominal.requests[i].shape,
                                     r.responses[i].serverMs);
        nominalTransportMs.push_back(msBetween(r.sent[i], r.received[i]) -
                                     r.responses[i].serverMs);
    }

    double best = sustained(nominal) ? nominal.rps : nominal.rps / 2;
    for (std::size_t k = 0; k < stepFractions.size(); ++k) {
        const Step s =
            offer(stepFractions[k] * capacity, 0.1 * seconds, salt + 2 + k);
        refused += s.result.shed + s.result.errors + s.result.lost;
        if (!sustained(s))
            break;
        best = s.rps;
    }
    maxRps.push_back(best);
}

double
ServeSection::finish()
{
    checkAccounting();
    env.report->set("serve.p50_ms", median(nominalMs), "ms");
    env.report->set("serve.p99_ms", quantile(nominalMs, 0.99), "ms");
    env.report->set("serve.cold_p50_ms", median(coldMs), "ms");
    env.report->set("serve.max_rps", median(maxRps), "1/s");
    env.report->set("loadgen.late_ms_p99", quantile(lateMs, 0.99), "ms");
    env.report->set("loadgen.step_refused", static_cast<double>(refused),
                    "count");
    return median(nominalMs) / 1e3;
}

void
ServeSection::layers(double seconds)
{
    // The request path's layers, one call each, on the in-process
    // reference service (its cache is warm for every hot shape).
    std::array<std::vector<double>, hotShapes> runMs;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < 40 || secondsSince(t0) < seconds; ++i) {
        const Request r{i % hotShapes, (i / hotShapes) % seedsPerShape};
        const std::uint32_t op = env.tracer->newOp();
        auto span = env.tracer->span("serve.probe", op);
        const std::string line = net::encodeRequest(wire(r, i));
        net::WireRequest rq;
        std::string error;
        {
            auto s = env.tracer->span("net.parse", op);
            net::parseRequest(line, rq, error);
        }
        const std::vector<serve::SweepRequest> batch{local.request(rq)};
        const Clock::time_point r0 = Clock::now();
        serve::BatchOutcome out;
        {
            auto s = env.tracer->span("serve.run", op);
            out = refService.run(batch);
        }
        runMs[r.shape].push_back(msBetween(r0, Clock::now()));
        std::string reply;
        {
            auto s = env.tracer->span("net.encode", op);
            reply = net::encodeOutcome(rq, out.outcomes.at(0), 0.0);
        }
        net::WireResponse rsp;
        {
            auto s = env.tracer->span("net.decode", op);
            net::parseResponse(reply, rsp, error);
        }
        env.report->check(matches(r, rsp),
                          "serve: probe reply differs from reference");
    }

    const auto perUs = [&](const char *name) {
        const Tracer::Totals t = env.tracer->totals(name);
        return t.count ? t.totalMs * 1e3 / static_cast<double>(t.count)
                       : 0.0;
    };
    env.report->set("net.parse_us", perUs("net.parse"), "us");
    env.report->set("net.encode_us", perUs("net.encode"), "us");
    env.report->set("net.decode_us", perUs("net.decode"), "us");
    // Run time weighted by the request mix's hot shapes.
    std::array<double, hotShapes> shapeRunMs{};
    std::array<double, hotShapes> shapeCount{};
    for (const int p : pattern)
        if (p >= 0)
            shapeCount[static_cast<std::size_t>(p)] += 1.0;
    double mixRunMs = 0.0;
    double mixCount = 0.0;
    for (std::size_t s = 0; s < hotShapes; ++s) {
        shapeRunMs[s] = median(runMs[s]);
        mixRunMs += shapeRunMs[s] * shapeCount[s];
        mixCount += shapeCount[s];
    }
    env.report->set("serve.run_ms", mixRunMs / mixCount, "ms");
    // Admission wait: server-side time of a hot nominal request minus
    // that shape's in-process run time; transport: client round trip
    // minus server-side time.
    std::vector<double> wait;
    for (const auto &[shape, serverMs] : nominalServerMs)
        if (shape < hotShapes)
            wait.push_back(serverMs - shapeRunMs[shape]);
    env.report->set("net.queue_wait_ms", median(wait), "ms");
    env.report->set("net.transport_ms", median(nominalTransportMs), "ms");

    const auto counter = [&](const char *name) {
        return static_cast<double>(metrics.counter(name).value());
    };
    const double hits = counter("serve.cache.hits");
    const double misses = counter("serve.cache.misses");
    env.report->set("serve.cache.hits", hits, "count");
    env.report->set("serve.cache.misses", misses, "count");
    env.report->set("serve.cache.evictions", counter("serve.cache.evictions"),
                    "count");
    env.report->set("serve.cache.hit_ratio",
                    hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac");
    env.report->set("serve.cache.compile_ms",
                    misses > 0 ? metrics.gauge("serve.cache.compile_ms")
                                         .value() /
                                     misses
                               : 0.0,
                    "ms");
    env.report->set("serve.pool.active_workers_hwm",
                    metrics.gauge("serve.pool.active_workers_hwm").value(),
                    "count");
    env.report->set("serve.pool.queue_depth_hwm",
                    metrics.gauge("serve.pool.queue_depth_hwm").value(),
                    "count");
    env.report->set("net.requests.accepted",
                    counter("net.requests.accepted"), "count");
    env.report->set("net.requests.shed", counter("net.requests.shed"),
                    "count");
    env.report->set("net.requests.bad", counter("net.requests.bad"),
                    "count");
    env.report->set("net.bytes.in", counter("net.bytes.in"), "B");
    env.report->set("net.bytes.out", counter("net.bytes.out"), "B");
}

} // namespace

std::unique_ptr<Section>
makeServeSection(const Env &env)
{
    return std::make_unique<ServeSection>(env);
}

} // namespace perfbench
