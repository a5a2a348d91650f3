#include "reference.hh"

#include <cstring>

#include "clocktree/builders.hh"
#include "layout/generators.hh"

namespace perfbench
{

using namespace vsync;

serve::SweepRequest
LocalScenarios::request(const net::WireRequest &rq)
{
    auto &sc = scenarios[{static_cast<int>(rq.scheme), rq.rows, rq.cols}];
    if (!sc) {
        sc = std::make_unique<Scenario>();
        sc->layout = layout::meshLayout(rq.rows, rq.cols);
        if (rq.scheme == net::WireScheme::HTree)
            sc->tree =
                clocktree::buildHTreeGrid(sc->layout, rq.rows, rq.cols);
        else if (rq.scheme == net::WireScheme::Spine)
            sc->tree = clocktree::buildSpine(sc->layout);
    }
    mc::McConfig cfg;
    cfg.seed = rq.seed;
    cfg.trials = rq.trials;
    cfg.grain = rq.grain;
    if (rq.kind == net::QueryKind::Skew) {
        serve::SkewRequest s;
        s.layout = &sc->layout;
        s.tree = &sc->tree;
        s.delay = rq.delay;
        s.cfg = cfg;
        s.trialOffset = rq.trialOffset;
        return s;
    }
    serve::ResilienceRequest q;
    q.layout = &sc->layout;
    q.rows = rq.rows;
    q.cols = rq.cols;
    q.kind = rq.scheme == net::WireScheme::Trix
                 ? mc::DistributionKind::TrixGrid
                 : (rq.scheme == net::WireScheme::Spine
                        ? mc::DistributionKind::Spine
                        : mc::DistributionKind::HTree);
    q.faultRate = rq.faultRate;
    q.rc.delay = rq.delay;
    q.cfg = cfg;
    q.trialOffset = rq.trialOffset;
    return q;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

namespace
{

bool
sameStats(const mc::McResult &got, const mc::McResult &want)
{
    return sameBits(got.samples, want.samples) &&
           (want.samples.empty() ||
            (got.stat.mean() == want.stat.mean() &&
             got.stat.stddev() == want.stat.stddev() &&
             got.stat.min() == want.stat.min() &&
             got.stat.max() == want.stat.max()));
}

} // namespace

bool
replyMatches(const net::WireRequest &rq, const net::WireResponse &rsp,
             const serve::RequestOutcome &want)
{
    const bool resilience = rq.kind == net::QueryKind::Resilience;
    const mc::McResult &primary =
        resilience ? want.resilience.maxCommSkew : want.skew;
    bool ok = rsp.ok && rsp.complete &&
              want.status == serve::RequestStatus::Complete &&
              rsp.trialsDone == want.trialsDone &&
              rsp.trialsRequested == want.trialsRequested &&
              sameBits(rsp.samples, primary.samples) &&
              rsp.mean == primary.stat.mean() &&
              rsp.stddev == primary.stat.stddev() &&
              rsp.minValue == primary.stat.min() &&
              rsp.maxValue == primary.stat.max();
    if (resilience)
        ok = ok &&
             sameBits(rsp.clockedSamples,
                      want.resilience.clockedFraction.samples) &&
             sameBits(rsp.faultSamples, want.faultSamples) &&
             rsp.meanFaults == want.resilience.meanFaults;
    return ok;
}

bool
outcomeMatches(const serve::RequestOutcome &got,
               const serve::RequestOutcome &want)
{
    return got.status == want.status && got.trialsDone == want.trialsDone &&
           got.trialsRequested == want.trialsRequested &&
           sameStats(got.skew, want.skew) &&
           sameStats(got.resilience.maxCommSkew,
                     want.resilience.maxCommSkew) &&
           sameStats(got.resilience.clockedFraction,
                     want.resilience.clockedFraction) &&
           got.resilience.meanFaults == want.resilience.meanFaults &&
           got.resilience.faultRate == want.resilience.faultRate &&
           sameBits(got.faultSamples, want.faultSamples);
}

} // namespace perfbench
