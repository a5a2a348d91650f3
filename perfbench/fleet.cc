/**
 * @file
 * fleet_batch: repeated batches through dist::Coordinator against two
 * single-threaded loopback ScenarioServer workers. The batch is mostly
 * skew work cut into fine shards, so shard round trips, encoding and
 * decoding of the per-trial samples and the trial-order fold carry a
 * large share of the batch time -- the dist layer's own cost.
 */

#include <algorithm>
#include <array>
#include <cstdio>

#include "bench.hh"
#include "client.hh"
#include "dist/coordinator.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "reference.hh"
#include "serve/sweep_service.hh"
#include "serve/work_unit.hh"

namespace perfbench
{

namespace
{

using namespace vsync;

/** Distinct batches per run; batch k of the loop is batches[k % 4]. */
constexpr std::size_t batchCount = 4;
constexpr unsigned fleetSize = 2;

class FleetSection : public Section
{
  public:
    explicit FleetSection(const Env &e);

    void begin() override;
    void measure(double seconds) override;
    double finish() override;
    void layers(double seconds) override;

  private:
    const std::vector<serve::RequestOutcome> &reference(std::size_t j);
    double workerBusyMs();

    Env env;
    std::array<obs::MetricsRegistry, fleetSize> workerMetrics;
    std::vector<std::unique_ptr<net::ScenarioServer>> workers;
    obs::MetricsRegistry coordMetrics;
    std::unique_ptr<dist::Coordinator> coord;
    std::array<std::vector<net::WireRequest>, batchCount> batches;

    serve::SweepService refService;
    LocalScenarios local;
    std::map<std::size_t, std::vector<serve::RequestOutcome>> refs;

    /** Batches since begin(); batch k runs batches[k % batchCount]. */
    std::size_t runs = 0;
    std::vector<double> batchSeconds;
    /** Ledger and busy time summed over the measured batches. */
    dist::ShardLedger ledger;
    double batchWallMs = 0.0;
    double busyMs = 0.0;
};

FleetSection::FleetSection(const Env &e)
    : env(e), refService(serve::ServiceConfig{e.width, 32, nullptr})
{
    std::vector<dist::WorkerEndpoint> endpoints;
    for (unsigned i = 0; i < fleetSize; ++i) {
        net::ServerConfig sc;
        sc.computeThreads = 1;
        sc.metrics = &workerMetrics[i];
        workers.push_back(std::make_unique<net::ScenarioServer>(sc));
        env.report->check(workers.back()->start(),
                          "fleet: worker failed to start");
        endpoints.push_back({"127.0.0.1", workers.back()->port()});
    }
    dist::DistConfig cfg;
    cfg.workers = endpoints;
    cfg.pool.backoff.baseSeconds = 0.01;
    cfg.pool.backoff.capSeconds = 0.1;
    cfg.pool.seed = mixSeed(env.seed, 2100);
    cfg.metrics = &coordMetrics;
    coord = std::make_unique<dist::Coordinator>(cfg);

    for (std::size_t j = 0; j < batchCount; ++j) {
        net::WireRequest rq;
        rq.kind = net::QueryKind::Skew;
        rq.scheme = net::WireScheme::HTree;
        rq.rows = rq.cols = 16;
        rq.seed = mixSeed(env.seed, 2000 + j);
        rq.trials = 2048;
        rq.grain = 32;
        batches[j].push_back(rq); // 64 shards
        rq.kind = net::QueryKind::Resilience;
        rq.scheme = net::WireScheme::Trix;
        rq.rows = rq.cols = 6;
        rq.faultRate = 0.02;
        rq.trials = 32;
        rq.grain = 16;
        batches[j].push_back(rq); // 2 shards
    }
    // Connect the fleet and compile the workers' kernels before timing.
    coord->run(batches[0]);
}

const std::vector<serve::RequestOutcome> &
FleetSection::reference(std::size_t j)
{
    auto &ref = refs[j];
    if (ref.empty()) {
        std::vector<serve::SweepRequest> local_batch;
        for (const net::WireRequest &rq : batches[j])
            local_batch.push_back(local.request(rq));
        ref = refService.run(local_batch).outcomes;
    }
    return ref;
}

double
FleetSection::workerBusyMs()
{
    double ms = 0.0;
    for (obs::MetricsRegistry &m : workerMetrics)
        ms += m.gauge("serve.batch.wall_ms").value();
    return ms;
}

void
FleetSection::begin()
{
    runs = 0;
    batchSeconds.clear();
    ledger = {};
    batchWallMs = busyMs = 0.0;
}

void
FleetSection::measure(double seconds)
{
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 4 || secondsSince(t0) < seconds; ++i, ++runs) {
        const std::size_t j = runs % batchCount;
        const double busy0 = workerBusyMs();
        const std::uint32_t op = env.tracer->newOp();
        const Clock::time_point b0 = Clock::now();
        dist::DistOutcome out;
        {
            auto span = env.tracer->span("dist.batch", op);
            out = coord->run(batches[j]);
        }
        const double wall = secondsSince(b0);
        batchSeconds.push_back(wall);
        batchWallMs += wall * 1e3;
        busyMs += workerBusyMs() - busy0;

        const dist::ShardLedger &lg = out.ledger;
        ledger.shards += lg.shards;
        ledger.dispatched += lg.dispatched;
        ledger.completed += lg.completed;
        ledger.superseded += lg.superseded;
        ledger.failed += lg.failed;
        ledger.retried += lg.retried;
        ledger.hedged += lg.hedged;
        ledger.lost += lg.lost;

        const std::vector<serve::RequestOutcome> &ref = reference(j);
        bool ok = env.report->check(
            lg.balanced() && lg.completed == lg.shards && lg.lost == 0 &&
                !out.deadlineExpired,
            "fleet: shard ledger out of balance or shards lost");
        ok = ok && env.report->check(out.outcomes.size() == ref.size(),
                                     "fleet: wrong outcome count");
        for (std::size_t r = 0; ok && r < ref.size(); ++r)
            ok = env.report->check(outcomeMatches(out.outcomes[r], ref[r]),
                                   "fleet: distributed outcome differs "
                                   "from the local SweepService");
        env.report->op(ok);

        if (ok && !env.report->outputs.count("fleet") && j == 0) {
            Digest d;
            for (const serve::RequestOutcome &o : out.outcomes) {
                d.add(o.skew.samples);
                d.add(o.resilience.maxCommSkew.samples);
                d.add(o.resilience.clockedFraction.samples);
            }
            char line[160];
            std::snprintf(line, sizeof(line),
                          "digest=%s shards=%llu mean_skew_ns_16x16=%.6f "
                          "mean_clocked_fraction_trix=%.6f",
                          d.hex().c_str(),
                          static_cast<unsigned long long>(lg.shards),
                          out.outcomes[0].skew.mean(),
                          out.outcomes[1].resilience.clockedFraction.mean());
            env.report->outputs["fleet"] = line;
        }
    }
}

double
FleetSection::finish()
{
    env.report->set("fleet.batch_s", median(batchSeconds), "s");
    return median(batchSeconds);
}

void
FleetSection::layers(double seconds)
{
    // Shards of batch 0, as the coordinator cuts them.
    const std::vector<net::WireRequest> &batch = batches[0];
    const std::vector<serve::RequestOutcome> &ref = reference(0);
    std::vector<serve::WorkUnit> units;
    for (std::size_t r = 0; r < batch.size(); ++r)
        serve::appendWorkUnits(r, batch[r].trials, batch[r].grain, units);
    const auto shardRequest = [&](const serve::WorkUnit &u,
                                  std::uint64_t id) {
        net::WireRequest rq = batch[u.request];
        rq.id = id;
        rq.trialOffset += u.begin;
        rq.trials = u.end - u.begin;
        return rq;
    };

    // The trial-order fold of a whole batch.
    Clock::time_point t0 = Clock::now();
    for (int k = 0; k < 8 || secondsSince(t0) < 0.25 * seconds; ++k) {
        std::vector<serve::RequestOutcome> outcomes = ref;
        std::vector<std::vector<std::uint8_t>> done;
        for (const net::WireRequest &rq : batch)
            done.emplace_back(rq.trials, 1);
        auto span = env.tracer->span("dist.fold", env.tracer->newOp());
        for (std::size_t r = 0; r < batch.size(); ++r)
            serve::foldOutcomeInTrialOrder(
                batch[r].kind == net::QueryKind::Skew, done[r], outcomes[r]);
    }

    // Encoding and decoding one skew shard's reply.
    t0 = Clock::now();
    for (std::size_t k = 0; k < 64 || secondsSince(t0) < 0.25 * seconds;
         ++k) {
        const serve::WorkUnit &u = units[k % units.size()];
        if (batch[u.request].kind != net::QueryKind::Skew)
            continue;
        serve::RequestOutcome shard;
        shard.trialsDone = shard.trialsRequested = u.end - u.begin;
        shard.skew.samples.assign(
            ref[u.request].skew.samples.begin() +
                static_cast<std::ptrdiff_t>(u.begin),
            ref[u.request].skew.samples.begin() +
                static_cast<std::ptrdiff_t>(u.end));
        mc::reduceInTrialOrder(shard.skew);
        const std::uint32_t op = env.tracer->newOp();
        std::string line;
        {
            auto span = env.tracer->span("dist.shard_encode", op);
            line = net::encodeOutcome(shardRequest(u, k), shard, 0.0);
        }
        net::WireResponse rsp;
        std::string error;
        {
            auto span = env.tracer->span("dist.shard_decode", op);
            net::parseResponse(line, rsp, error);
        }
    }

    // Unloaded shard round trip: one shard at a time to worker 0.
    std::vector<double> rtt;
    {
        LineConnection conn(workers[0]->port());
        std::string line;
        t0 = Clock::now();
        for (std::size_t k = 0;
             conn.ok() && (k < 32 || secondsSince(t0) < 0.5 * seconds); ++k) {
            const serve::WorkUnit &u = units[k % units.size()];
            const std::uint32_t op = env.tracer->newOp();
            const Clock::time_point s0 = Clock::now();
            auto span = env.tracer->span("dist.shard_rtt", op);
            net::WireResponse rsp;
            std::string error;
            const bool ok = conn.sendLine(net::encodeRequest(
                                shardRequest(u, k))) &&
                            conn.readLine(line, 10.0) &&
                            net::parseResponse(line, rsp, error);
            if (!env.report->check(ok && rsp.ok && rsp.complete,
                                   "fleet: shard probe failed"))
                break;
            rtt.push_back(msBetween(s0, Clock::now()));
        }
    }

    const auto perUs = [&](const char *name) {
        const Tracer::Totals t = env.tracer->totals(name);
        return t.count ? t.totalMs * 1e3 / static_cast<double>(t.count)
                       : 0.0;
    };
    env.report->set("dist.fold_ms", perUs("dist.fold") / 1e3, "ms");
    env.report->set("dist.shard_encode_us", perUs("dist.shard_encode"),
                    "us");
    env.report->set("dist.shard_decode_us", perUs("dist.shard_decode"),
                    "us");
    env.report->set("dist.shard_rtt_ms", median(rtt), "ms");
    const double n =
        static_cast<double>(std::max<std::size_t>(1, batchSeconds.size()));
    env.report->set("dist.hedge_waste_ratio",
                    ledger.dispatched
                        ? static_cast<double>(ledger.superseded) /
                              static_cast<double>(ledger.dispatched)
                        : 0.0,
                    "frac");
    env.report->set("dist.worker_busy_frac",
                    batchWallMs > 0.0 ? busyMs / (fleetSize * batchWallMs)
                                      : 0.0,
                    "frac");
    env.report->set("dist.shards_per_batch",
                    static_cast<double>(ledger.shards) / n, "count");
    env.report->set("dist.dispatched_per_batch",
                    static_cast<double>(ledger.dispatched) / n, "count");
    env.report->set("dist.retried_per_batch",
                    static_cast<double>(ledger.retried) / n, "count");
    env.report->set("dist.hedged_per_batch",
                    static_cast<double>(ledger.hedged) / n, "count");
    env.report->set("dist.lost_per_batch",
                    static_cast<double>(ledger.lost) / n, "count");
}

} // namespace

std::unique_ptr<Section>
makeFleetSection(const Env &env)
{
    return std::make_unique<FleetSection>(env);
}

} // namespace perfbench
