/**
 * @file
 * Applying fault plans to simulated clock distributions.
 *
 * A FaultInjector arms the faults of a FaultPlan onto concrete desim
 * targets through the narrow seams those classes expose
 * (DelayElement::setDead / setDelayScale, Signal::forceStuck,
 * scheduled glitch pulses, HandshakePair wire access) -- no target
 * class is forked or subclassed. Faults with onset <= now() apply
 * immediately; later onsets are scheduled on the simulator, so a chip
 * can start healthy and degrade mid-run.
 *
 * The file also hosts the comparison drivers: one faulty
 * clock-distribution run over a buffered tree (ClockNet) or a TRIX
 * grid, both reduced to the same per-cell arrival surface
 * (core::skewFromArrivals), which is what lets resilience sweeps put
 * tree and grid under identical fault plans.
 */

#ifndef VSYNC_FAULT_INJECTOR_HH
#define VSYNC_FAULT_INJECTOR_HH

#include <vector>

#include "clocktree/buffering.hh"
#include "core/skew_kernel.hh"
#include "desim/clock_net.hh"
#include "desim/simulator.hh"
#include "fault/fault_plan.hh"
#include "fault/trix_grid.hh"
#include "hybrid/handshake.hh"

namespace vsync::obs
{
class MetricsRegistry;
} // namespace vsync::obs

namespace vsync::fault
{

/** Arms a FaultPlan's faults onto simulated targets. */
class FaultInjector
{
  public:
    /**
     * @param sim  the simulator the targets live on (used to schedule
     *             onsets and glitch pulses).
     * @param plan the plan to inject (copied; temporaries are fine).
     */
    FaultInjector(desim::Simulator &sim, FaultPlan plan);

    /**
     * Hook buffer and net faults into @p net: DeadBuffer/DelayDrift by
     * element index, StuckAtNet/TransientGlitch by site index. Call
     * before driving the net.
     */
    void armClockNet(desim::ClockNet &net);

    /**
     * Hook buffer and net faults into @p grid: DeadBuffer/DelayDrift
     * by link index, StuckAtNet/TransientGlitch by net index (index
     * nodeCount() is the root driver).
     */
    void armTrixGrid(TrixGrid &grid);

    /**
     * Hook SeveredHandshakeWire faults into @p pairs: wire 2p is pair
     * p's request wire, wire 2p+1 its acknowledge wire.
     */
    void armHandshakes(const std::vector<hybrid::HandshakePair *> &pairs);

    /** Faults armed onto targets so far. */
    std::size_t armed() const { return armedCount; }

    /**
     * Count every subsequently armed fault into @p reg as a
     * "fault.armed.<kind>" counter (nullptr disables). Counters are
     * thread-safe, so concurrent trials may share one registry.
     */
    void setMetrics(obs::MetricsRegistry *reg) { metrics = reg; }

  private:
    desim::Simulator &sim;
    FaultPlan plan;
    std::size_t armedCount = 0;
    obs::MetricsRegistry *metrics = nullptr;

    void noteArmed(FaultKind kind);

    void killElement(desim::DelayElement &el, Time onset);
    void driftElement(desim::DelayElement &el, Time onset, double factor);
    void stickSignal(desim::Signal &sig, Time onset, bool high);
    void glitchSignal(desim::Signal &sig, Time onset, Time width);
};

/** The fault universe of a buffered clock tree driven as a ClockNet. */
FaultUniverse universeOf(const clocktree::BufferedClockTree &tree);

/** Per-cell outcome of one faulty clock-distribution run. */
struct DistributionOutcome
{
    /** First clock arrival per cell; infinity = never clocked. */
    std::vector<Time> cellArrival;
    /** Fraction of cells with a finite arrival. */
    double clockedFraction = 0.0;
    /** Max realised skew over comm pairs with both ends clocked. */
    Time maxCommSkew = 0.0;
    /** Comm pairs with both endpoints clocked. */
    std::size_t clockedPairs = 0;
    /** All comm pairs of the layout. */
    std::size_t pairCount = 0;
    /** Faults the plan injected. */
    std::size_t faultCount = 0;
};

/**
 * Drive one clock pulse through @p btree with @p plan armed and
 * measure what arrives. @p kernel must be the tree-compiled
 * core::SkewKernel of the scenario @p btree buffers; it supplies the
 * cell-to-node binding and the comm-pair reduction, so sweeps compile
 * it once and share it read-only across trials.
 *
 * @param delay_of per-site stage delays, as ClockNet's constructor
 *                 takes them (called in deterministic site order).
 */
DistributionOutcome
simulateTreeUnderFaults(const core::SkewKernel &kernel,
                        const clocktree::BufferedClockTree &btree,
                        const desim::ClockNet::DelayFn &delay_of,
                        const FaultPlan &plan);

/**
 * The arrivals-only half of simulateTreeUnderFaults: run the faulty
 * pulse and fill @p cell_arrival (resized to kernel.cellCount();
 * infinity = never clocked) without the pair-fold reduction: the desim
 * oracle of mc::ResilienceScenario::cellArrivals, whose one-trial pass
 * is in turn the oracle of the sweep's 8-lane pass
 * (mc::ResilienceScenario::runTrialBlock).
 */
void
simulateTreeArrivalsUnderFaults(const core::SkewKernel &kernel,
                                const clocktree::BufferedClockTree &btree,
                                const desim::ClockNet::DelayFn &delay_of,
                                const FaultPlan &plan,
                                std::vector<Time> &cell_arrival);

/**
 * Drive one clock pulse through a rows x cols TRIX grid clocking the
 * kernel's cells row-major (cell r * cols + c under node (r, c)) with
 * @p plan armed and measure what arrives. @p kernel may be pairs-only
 * (the grid replaces the tree, so no tree compile exists).
 *
 * @param delay_of per-link delays (TrixGrid::LinkDelayFn).
 */
DistributionOutcome
simulateGridUnderFaults(const core::SkewKernel &kernel, int rows,
                        int cols, const TrixGrid::LinkDelayFn &delay_of,
                        const FaultPlan &plan);

/** The arrivals-only half of simulateGridUnderFaults (see
 *  simulateTreeArrivalsUnderFaults). */
void
simulateGridArrivalsUnderFaults(const core::SkewKernel &kernel, int rows,
                                int cols,
                                const TrixGrid::LinkDelayFn &delay_of,
                                const FaultPlan &plan,
                                std::vector<Time> &cell_arrival);

} // namespace vsync::fault

#endif // VSYNC_FAULT_INJECTOR_HH
