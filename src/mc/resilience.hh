/**
 * @file
 * Resilience sweeps: yield and graceful degradation under faults.
 *
 * Where sweeps.hh asks "how fast is a healthy chip", these sweeps ask
 * "how much survives a broken one". Each trial draws a FaultPlan from
 * its private substream (fault::FaultPlan, so plans are bit-identical
 * at any thread count), applies it to a clock distribution -- a
 * buffered H-tree or spine or the redundant TRIX grid -- and measures
 * the realised per-cell arrival surface: the fraction of cells still
 * correctly clocked and the maximum skew between communicating cells
 * that both got a clock. Sweeping the fault rate yields the
 * graceful-degradation curves BENCH_fault_tolerance plots;
 * hybridSurvivalSweep does the same for the Section VI handshake
 * network under severed wires.
 *
 * First arrivals come from a compiled one-pass recurrence over the
 * distribution (ResilienceScenario documents the rules), bitwise equal
 * to the desim drivers fault::simulate{Tree,Grid}ArrivalsUnderFaults,
 * which stay the oracle (tests/test_resilience_compiled.cc). Sweeps
 * run it eight trials at a time (runTrialBlock); the one-trial
 * cellArrivals / runTrial are the lane pass's oracle.
 *
 * All sweeps obey the Monte-Carlo determinism contract: results are
 * bit-identical for any cfg.threads.
 */

#ifndef VSYNC_MC_RESILIENCE_HH
#define VSYNC_MC_RESILIENCE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "clocktree/buffering.hh"
#include "clocktree/clock_tree.hh"
#include "common/rng.hh"
#include "core/skew_kernel.hh"
#include "core/wire_delay.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "hybrid/network.hh"
#include "layout/layout.hh"
#include "mc/montecarlo.hh"

namespace vsync::obs
{
class Counter;
} // namespace vsync::obs

namespace vsync::mc
{

/** The clock distribution schemes the resilience sweeps compare. */
enum class DistributionKind
{
    /** Buffered equidistant H-tree (Theorem 2's scheme). */
    HTree,
    /** Buffered spine along the array (Theorem 3's scheme). */
    Spine,
    /** Redundant median-voting grid (fault::TrixGrid). */
    TrixGrid,
};

/** Human-readable distribution name. */
std::string distributionKindName(DistributionKind kind);

/** Physical constants of the simulated distributions. */
struct ResilienceConfig
{
    /** Per-unit wire-delay spread (the Section III m and eps). */
    core::WireDelay delay{0.05, 0.005};
    /** Buffer insertion delay per stage (ns). */
    Time bufferDelay = 0.2;
    /** Buffer spacing along tree wires (lambda, A7). */
    Length bufferSpacing = 4.0;
};

/** One point of a graceful-degradation curve. */
struct ResiliencePoint
{
    /** Per-site fault rate this point was measured at. */
    double faultRate = 0.0;
    /** Max skew over fully clocked comm pairs, per trial. */
    McResult maxCommSkew;
    /** Fraction of cells still clocked, per trial. */
    McResult clockedFraction;
    /** Mean number of faults injected per trial. */
    double meanFaults = 0.0;
};

/**
 * Substream salts within a trial's Rng::forTrial stream: the fault plan
 * and the wire-delay realisation never perturb each other, so the same
 * chip (delays) can be compared across fault rates.
 */
inline constexpr std::uint64_t planSalt = 1;
inline constexpr std::uint64_t delaySalt = 2;

/** Optional per-trial observability counters (nullptr = off). */
struct TrialCounters
{
    /** One inc() per planned fault, on the counter of its kind. */
    std::array<obs::Counter *, fault::faultKindCount> faultKinds{};
};

/** The fault plans of one lane group, written by drawPlanBlock. Reuse
 *  one per thread: cleared hit lists keep their capacity. */
struct PlanBlock
{
    static constexpr std::size_t lanes = 8;
    /** Lane j's faults, as FaultPlan::generate lists them. */
    std::array<std::vector<fault::Fault>, lanes> hits;
    /** Lane j's plan draws, as FaultPlan::draws() counts them. */
    std::array<std::uint64_t, lanes> draws{};
};

/**
 * The fault plans of trials [first_trial, first_trial + count), each
 * drawn from Rng::forTrial(seed, trial).deriveStream(planSalt) --
 * lane j's hits and draws equal FaultPlan::generate's for trial
 * first_trial + j. Per fault kind, the lanes' substreams advance in
 * lockstep through Rng::propagateUniformLanes into a 64-row chunk of
 * uniform() draws, one compare per row (AVX2 unless @p isa is
 * Scalar) marks the hits, and each lane walks its own hits with its
 * own cursor, a hit consuming the lane's next draw for its drift
 * factor or stuck level exactly as generate does. @pre 1 <= count <= PlanBlock::lanes;
 * @p isa supported. Returns the draws of all lanes.
 */
std::uint64_t drawPlanBlock(const fault::FaultUniverse &universe,
                            const fault::FaultRates &rates,
                            std::uint64_t seed, std::uint64_t first_trial,
                            std::size_t count, PlanBlock &out,
                            RngIsa isa = rngIsaBest());

/**
 * The shared read-only state of one resilience experiment, built once
 * before the trial fan-out: the distribution under test (tree + its
 * buffered form, or the grid dimensions), its fault universe and
 * rates, the compiled kernel and the flat first-arrival arrays.
 * Immutable after compile; safe to share across threads.
 * runTrialRange is the one trial loop: the mc:: sweeps and
 * serve::SweepService (one scenario per resilience request, kernel via
 * the scenario cache) both call it per chunk of trials.
 *
 * A trial's first arrivals come from one forward pass. Under a plan
 * whose faults all apply at t = 0, with A = first rising arrival and
 * d the stage (tree site) or link (grid) delay drawn as desim's
 * ClockNet / TrixGrid constructors draw it:
 *
 *  - tree site i: A[i] = stuckLow ? inf : min(forced0 ? 0 : inf,
 *    alive ? A[parent] + d_i * scale_i : inf);
 *  - grid node (r, c): the same rule with the alive term replaced by
 *    the second-smallest of its three link arrivals
 *    A[r-1][pc_k] + d_k * scale_k (dead links inf);
 *  - the root is 0 unless stuck low.
 *
 * alive/scale fold the dead-buffer and delay-drift faults of the stage
 * feeding a site; forced0 is a stuck-at-high net or a glitch on a net
 * that is not stuck low (either rises at t = 0). Desim is the oracle
 * (tests/test_resilience_compiled.cc). Every plan FaultPlan::generate
 * draws obeys these rules; a hand-built plan outside them (a nonzero
 * onset, or a dead or drifting stage listed after a stuck-at-high net)
 * aborts, and only the desim drivers can run it.
 */
struct ResilienceScenario
{
    DistributionKind kind = DistributionKind::HTree;
    int rows = 0;
    int cols = 0;
    /** Tree distributions only; empty for TrixGrid. */
    clocktree::ClockTree tree;
    clocktree::BufferedClockTree btree;
    fault::FaultUniverse universe;
    fault::FaultRates rates;
    ResilienceConfig rc;
    /** Tree-compiled, or pairs-only for TrixGrid. */
    std::shared_ptr<const core::SkewKernel> kernel;

    /** Flattened btree for the compiled pass (trees only), per site:
     *  parent site (parents precede children), wire length from the
     *  parent, buffer flag. */
    std::vector<std::uint32_t> siteParent;
    std::vector<Length> siteWire;
    std::vector<std::uint8_t> siteIsBuffer;
    /** Buffered-tree site clocking each cell. */
    std::vector<std::uint32_t> cellSite;

    /**
     * First arrivals of one clock pulse under @p plan, with the stage
     * or link delays drawn from @p delay_rng exactly as
     * fault::simulate{Tree,Grid}ArrivalsUnderFaults draw them through
     * the ClockNet / TrixGrid constructors: cell c's arrival (infinity
     * = never clocked) goes to out[c * stride]. Bitwise equal to those
     * desim drivers. @pre @p plan obeys the rules above (every onset
     * 0, no dead or drifting stage after a stuck-at-high net); a plan
     * that does not aborts.
     */
    void cellArrivals(const fault::FaultPlan &plan, Rng &delay_rng,
                      Time *out, std::size_t stride = 1) const;

    /**
     * One trial, bit-identical for any thread count: draws the fault
     * plan and the wire delays from disjoint substreams of
     * Rng::forTrial(seed, trial) (salts planSalt, delaySalt) and
     * computes the first arrivals of one clock pulse under the plan
     * (cellArrivals).
     */
    fault::DistributionOutcome
    runTrial(std::uint64_t seed, std::uint64_t trial,
             const TrialCounters *counters = nullptr) const;

    /**
     * Trials [first_trial, first_trial + count) in one blocked pass,
     * lane-major end to end, PlanBlock::lanes trials per lane group:
     * drawPlanBlock draws the group's plans in lockstep; each lane's
     * faults are folded into its lane of per-thread fault slots; one
     * lane pass draws every lane's delays through
     * Rng::propagateUniformLanes (64 rows at a time over a zero row)
     * and computes every site or node in all lanes at once, branch-
     * free, writing the group's columns of a lane-major cell matrix;
     * and one core::SkewKernel::arrivalSkewBlock call folds the whole
     * block. Trial j's slots are bitwise what runTrial produces, and
     * @p isa (the RNG kernels', the pass's and the fold's) does not
     * change them. @p count <= core::SkewKernel::maxLanes;
     * @p isa supported. @p lane_scratch is resized once and reusable
     * across calls on the same thread. Returns the RNG draws of the
     * plan and delay substreams.
     */
    std::uint64_t runTrialBlock(std::uint64_t seed,
                                std::uint64_t first_trial,
                                std::size_t count,
                                std::span<double> out_skew,
                                std::span<double> out_clocked,
                                std::span<double> out_faults,
                                const TrialCounters *counters,
                                std::vector<Time> &lane_scratch,
                                RngIsa isa = rngIsaBest()) const;

    /**
     * The Monte-Carlo range entry point: trials [first_trial,
     * first_trial + out_skew.size()), driven kernel->blockWidth()
     * trials at a time through runTrialBlock with a narrower
     * remainder block; slot k of each output span receives trial
     * first_trial + k, on @p isa as runTrialBlock takes it. Every
     * width and ISA is bit-identical, so results do not depend on how
     * a sweep splits its trials into ranges or on the host. Returns
     * the RNG draws consumed.
     */
    std::uint64_t runTrialRange(std::uint64_t seed,
                                std::uint64_t first_trial,
                                std::span<double> out_skew,
                                std::span<double> out_clocked,
                                std::span<double> out_faults,
                                const TrialCounters *counters,
                                std::vector<Time> &scratch,
                                RngIsa isa = rngIsaBest()) const;
};

/**
 * Build the shared state resilienceAtRate fans trials over: the
 * distribution for @p kind over a rows x cols mesh layout @p l (cells
 * row-major), fault::FaultRates::mixed(fault_rate), and the kernel
 * fetched from @p kernels (tree-compiled, or pairs-only for TrixGrid).
 */
ResilienceScenario
compileResilienceScenario(const layout::Layout &l, int rows, int cols,
                          DistributionKind kind, double fault_rate,
                          const ResilienceConfig &rc,
                          const core::KernelProvider &kernels);

/**
 * Measure one distribution at one fault rate over a rows x cols mesh
 * layout @p l (cells row-major). Each trial arms
 * fault::FaultRates::mixed(fault_rate) on the distribution and drives
 * one clock pulse; trial i draws its plan and its wire delays from
 * disjoint substreams of Rng::forTrial(cfg.seed, i). The kernel comes
 * from @p kernels (pass serve::ScenarioCache::provider() to amortise
 * the compile across sweeps); results do not depend on the provider.
 * With cfg.metrics set, the sweep records the runChunks counters
 * under "mc.<metricsName>." plus one "mc.resilience.faults.<kind>"
 * inc per planned fault.
 */
ResiliencePoint resilienceAtRate(
    const layout::Layout &l, int rows, int cols, DistributionKind kind,
    double fault_rate, const ResilienceConfig &rc, const McConfig &cfg,
    const core::KernelProvider &kernels = core::directCompile());

/**
 * The graceful-degradation curve: resilienceAtRate at every rate of
 * @p rates (typically including 0 as the healthy baseline), bitwise.
 * The distribution compiles once and one pool runs every rate.
 */
std::vector<ResiliencePoint>
degradationCurve(const layout::Layout &l, int rows, int cols,
                 DistributionKind kind, const std::vector<double> &rates,
                 const ResilienceConfig &rc, const McConfig &cfg);

/**
 * Fraction of hybrid elements still completing cycles when each
 * handshake wire (2 per adjacent element pair) is severed independently
 * with probability @p fault_rate. An element adjacent to a severed wire
 * stalls, and the stall propagates to elements waiting on it -- the
 * observable is the surviving fraction after @p rounds rounds, showing
 * the locality of the damage (unlike a clock tree, a severed wire never
 * silences cells that do not wait on it). A trial's RNG draws -- its
 * plan's substreams plus its jitter stream -- feed the sweep's
 * rng_draws metric.
 */
McResult hybridSurvivalSweep(const hybrid::HybridNetwork &net,
                             double fault_rate, int rounds,
                             const McConfig &cfg);

} // namespace vsync::mc

#endif // VSYNC_MC_RESILIENCE_HH
