#include "serve/work_unit.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vsync::serve
{

void
appendWorkUnits(std::size_t request, std::size_t trials,
                std::size_t grain, std::vector<WorkUnit> &out)
{
    VSYNC_ASSERT(grain >= 1, "work-unit grain must be >= 1");
    for (std::size_t b = 0; b < trials; b += grain)
        out.push_back(WorkUnit{request, b, std::min(b + grain, trials)});
}

void
prepareOutcome(bool is_skew, std::size_t trials, double fault_rate,
               RequestOutcome &o)
{
    o.trialsRequested = trials;
    if (is_skew) {
        o.skew.samples.assign(trials, 0.0);
        return;
    }
    o.resilience.faultRate = fault_rate;
    o.resilience.maxCommSkew.samples.assign(trials, 0.0);
    o.resilience.clockedFraction.samples.assign(trials, 0.0);
    o.faultSamples.assign(trials, 0.0);
}

void
foldOutcomeInTrialOrder(bool is_skew,
                        const std::vector<std::uint8_t> &trialDone,
                        RequestOutcome &o)
{
    const std::size_t trials = trialDone.size();
    o.trialsDone = 0;
    for (const std::uint8_t d : trialDone)
        o.trialsDone += d ? 1 : 0;

    o.skew.stat.reset();
    o.resilience.maxCommSkew.stat.reset();
    o.resilience.clockedFraction.stat.reset();
    o.trialDone.clear();

    if (o.trialsDone == trials) {
        o.status = RequestStatus::Complete;
        if (is_skew) {
            mc::reduceInTrialOrder(o.skew);
        } else {
            mc::reduceInTrialOrder(o.resilience.maxCommSkew);
            mc::reduceInTrialOrder(o.resilience.clockedFraction);
            double total = 0.0;
            for (const double f : o.faultSamples)
                total += f;
            o.resilience.meanFaults =
                trials ? total / static_cast<double>(trials) : 0.0;
        }
        return;
    }

    o.status = RequestStatus::Partial;
    o.trialDone = trialDone;
    double total = 0.0;
    for (std::size_t i = 0; i < trials; ++i) {
        if (!trialDone[i])
            continue;
        if (is_skew) {
            o.skew.stat.add(o.skew.samples[i]);
        } else {
            o.resilience.maxCommSkew.stat.add(
                o.resilience.maxCommSkew.samples[i]);
            o.resilience.clockedFraction.stat.add(
                o.resilience.clockedFraction.samples[i]);
            total += o.faultSamples[i];
        }
    }
    if (!is_skew)
        o.resilience.meanFaults =
            o.trialsDone ? total / static_cast<double>(o.trialsDone)
                         : 0.0;
}

} // namespace vsync::serve
