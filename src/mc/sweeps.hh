/**
 * @file
 * Domain Monte-Carlo sweeps built on the deterministic engine.
 *
 * Each sweep parallelises one of the repo's stochastic experiments:
 *
 *  - skewSweep: per-chip realised clock skew over a clock tree
 *    (Section III wire-delay model, core::sampleSkewInstance's hot
 *    path),
 *  - chipCycleSweep / yieldAtCycleTimeMc: fabricated inverter-string
 *    cycle times and the Table 7 yield experiment (Section VII),
 *  - selfTimedCycleSweep: steady cycle of self-timed arrays whose
 *    cells have randomly fabricated service times (Section I),
 *  - hybridCycleSweep: steady cycle of the hybrid network under
 *    per-round jitter (Section VI).
 *
 * All sweeps obey the engine's determinism contract: results are
 * bit-identical for any cfg.threads.
 */

#ifndef VSYNC_MC_SWEEPS_HH
#define VSYNC_MC_SWEEPS_HH

#include "circuit/process.hh"
#include "clocktree/clock_tree.hh"
#include "core/skew_kernel.hh"
#include "core/wire_delay.hh"
#include "hybrid/network.hh"
#include "layout/layout.hh"
#include "mc/montecarlo.hh"
#include "systolic/array.hh"

namespace vsync::mc
{

/**
 * Maximum realised communicating skew per sampled chip: cfg.trials
 * chips, each with per-wire unit delays drawn from
 * [delay.lo(), delay.hi()]. Fetches one core::SkewKernel for the
 * scenario from @p kernels -- pass serve::ScenarioCache::provider() so
 * repeated sweeps over the same (layout, tree) reuse one compile --
 * shares it read-only across the worker threads, and runs each chunk
 * through core::SkewKernel::sampleMaxCommSkewRange; results are
 * bit-identical to the pre-kernel per-chip sampler for the same
 * cfg.seed, whatever the provider or lane width. When cfg.metrics is
 * set, the kernel's stats are exported under
 * "mc.<metricsName>.kernel." alongside the sweep counters.
 */
McResult skewSweep(const layout::Layout &l, const clocktree::ClockTree &t,
                   const core::WireDelay &delay, const McConfig &cfg,
                   const core::KernelProvider &kernels =
                       core::directCompile());

/**
 * Minimum pipelined cycle time per fabricated n-stage inverter string
 * (one trial = one chip).
 */
McResult chipCycleSweep(const circuit::ProcessParams &process, int n,
                        const McConfig &cfg);

/**
 * Monte-Carlo yield: fraction of fabricated chips whose minimum
 * pipelined cycle fits within @p period. The estimator shares
 * chipCycleSweep's per-chip substreams, so it converges to
 * circuit::yieldAtCycleTime as cfg.trials grows.
 */
double yieldAtCycleTimeMc(const circuit::ProcessParams &process, int n,
                          Time period, const McConfig &cfg);

/**
 * Steady self-timed cycle per sampled array: each trial fabricates the
 * cells' service times with systolic::bernoulliServiceTimes(p_fast,
 * fast, slow) and runs the bounded-buffer self-timed schedule for
 * @p firings firings.
 */
McResult selfTimedCycleSweep(const systolic::SystolicArray &array,
                             int firings, double p_fast, Time fast,
                             Time slow, const McConfig &cfg);

/**
 * Steady hybrid cycle per trial under per-round jitter: each trial
 * simulates @p rounds rounds of @p net's max-plus recurrence with its
 * own jitter stream. @pre net.params().jitterAmplitude > 0 (otherwise
 * the result is deterministic and one simulate() call suffices).
 */
McResult hybridCycleSweep(const hybrid::HybridNetwork &net, int rounds,
                          const McConfig &cfg);

} // namespace vsync::mc

#endif // VSYNC_MC_SWEEPS_HH
