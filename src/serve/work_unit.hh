/**
 * @file
 * The sharding, layout and folding seams of the serving layer, exposed.
 *
 * SweepService splits every request's trials into grain-sized
 * WorkUnits (appendWorkUnits) and, after the fan-out, folds the
 * per-trial samples back into statistics in trial order
 * (foldOutcomeInTrialOrder). Both halves are pure functions of the
 * batch, so they live here as free functions rather than inside the
 * service: the distributed coordinator (src/dist/) calls the *same*
 * appendWorkUnits to shard across remote workers and folds the
 * returned samples with the *same* fold, which is what makes "a distributed run is
 * bit-identical to a local run" true by construction instead of by
 * test alone. Any component that honours these two seams -- identical
 * unit boundaries, identical trial-order fold -- produces identical
 * bytes for any shard assignment, arrival order or failure pattern.
 */

#ifndef VSYNC_SERVE_WORK_UNIT_HH
#define VSYNC_SERVE_WORK_UNIT_HH

#include <cstdint>
#include <vector>

#include "serve/sweep_service.hh"

namespace vsync::serve
{

/**
 * One schedulable slice of one request's trials: trials
 * [begin, end) of batch[request]. Trial i of the slice draws from
 * Rng::forTrial(seed, trialOffset + i) exactly as the local fan-out
 * does, so a unit means the same thing on any machine.
 */
struct WorkUnit
{
    std::size_t request = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
};

/**
 * Append the grain-sized units covering [0, trials) of request
 * @p request: [0, grain), [grain, 2*grain), ... with a short tail.
 * SweepService and the distributed coordinator both shard through
 * this call, request by request, so their unit boundaries agree.
 * @pre grain >= 1.
 */
void appendWorkUnits(std::size_t request, std::size_t trials,
                     std::size_t grain, std::vector<WorkUnit> &out);

/**
 * Lay out @p o for a request of @p trials trials before any sample
 * arrives: trialsRequested, and zero-filled per-trial slots -- skew:
 * o.skew.samples; resilience: o.resilience.*.samples and
 * o.faultSamples, with o.resilience.faultRate = @p fault_rate. The
 * local service and the distributed fold both lay outcomes out here,
 * so their slots cannot drift apart.
 */
void prepareOutcome(bool is_skew, std::size_t trials, double fault_rate,
                    RequestOutcome &o);

/**
 * Fold @p o's already-filled per-trial samples into its statistics,
 * exactly as SweepService's reduction phase does:
 *
 *  - every trial done (the mask is all ones): status Complete, the
 *    samples reduce in trial order (mc::reduceInTrialOrder) and, for
 *    resilience requests, meanFaults averages o.faultSamples over all
 *    trials;
 *  - otherwise: status Partial, only trials with trialDone[i] != 0
 *    fold (still in trial order), the mask is recorded in o.trialDone
 *    and meanFaults averages over the done trials.
 *
 * @p trialDone must have one entry per requested trial and the
 * samples of done trials must already sit in their slots (skew:
 * o.skew.samples; resilience: o.resilience.*.samples plus
 * o.faultSamples). Statistics of any prior fold are discarded.
 */
void foldOutcomeInTrialOrder(bool is_skew,
                             const std::vector<std::uint8_t> &trialDone,
                             RequestOutcome &o);

} // namespace vsync::serve

#endif // VSYNC_SERVE_WORK_UNIT_HH
