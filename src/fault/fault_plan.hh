/**
 * @file
 * Deterministic fault plans: what breaks, where, and when.
 *
 * A FaultPlan is the complete description of the physical faults one
 * simulated chip suffers -- dead buffers, delay drift, stuck-at clock
 * nets, transient glitches, severed handshake wires. Plans are drawn
 * from counter-based RNG substreams (Rng::forTrial / deriveStream), so
 * the plan for trial i of a resilience sweep is a pure function of
 * (seed, trial, universe, rates): bit-identical at any thread count,
 * the same contract the Monte-Carlo engine guarantees for its samples
 * (DESIGN.md 4.1). Each fault kind draws from its own derived
 * substream, so raising one kind's rate never moves another kind's
 * sites. Generated faults strike at t = 0; a later onset comes only
 * from a hand-built plan (FaultInjector schedules it in desim).
 */

#ifndef VSYNC_FAULT_FAULT_PLAN_HH
#define VSYNC_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vsync
{
class Rng;
} // namespace vsync

namespace vsync::fault
{

/** The physical failure modes the subsystem can inject. */
enum class FaultKind
{
    /** A buffer/wire stage stops propagating transitions entirely. */
    DeadBuffer,
    /** A stage's delays are multiplied by a factor > 1 (aging/drift). */
    DelayDrift,
    /** A clock net freezes at a fixed logic level. */
    StuckAtNet,
    /** A clock net emits one spurious pulse. */
    TransientGlitch,
    /** A handshake req or ack wire is cut (the pair stalls). */
    SeveredHandshakeWire,
};

/** Number of FaultKind values (substream salts range over this). */
inline constexpr int faultKindCount = 5;

/** Human-readable fault-kind name. */
std::string faultKindName(FaultKind kind);

/** One concrete fault: a kind bound to a site and an onset time. */
struct Fault
{
    FaultKind kind = FaultKind::DeadBuffer;
    /** Site index; the domain depends on the kind (buffer/link index
     *  for DeadBuffer/DelayDrift, net index for StuckAtNet/
     *  TransientGlitch, wire index for SeveredHandshakeWire). */
    std::size_t site = 0;
    /** Simulation time at which the fault manifests (ns). */
    Time onset = 0.0;
    /** Kind-specific magnitude: delay-drift factor (> 1 slower) or
     *  transient-glitch pulse width (ns); 1 otherwise. */
    double magnitude = 1.0;
    /** Level a StuckAtNet fault freezes the net at. */
    bool stuckHigh = false;
};

/**
 * How many sites of each kind a target system exposes. Obtained from
 * the target (fault::universeOf, TrixGrid::universe) so plans can be
 * generated before any simulator exists.
 */
struct FaultUniverse
{
    /** Delay stages (tree elements or grid links). */
    std::size_t bufferSites = 0;
    /** Clock nets (signals stuck-at / glitch faults can hit). */
    std::size_t clockNets = 0;
    /** Handshake wires (2 per HandshakePair: req then ack). */
    std::size_t handshakeWires = 0;
};

/** Per-site fault probabilities and magnitude parameters. */
struct FaultRates
{
    /** P(dead) per buffer site. */
    double deadBuffer = 0.0;
    /** P(drift) per buffer site. */
    double delayDrift = 0.0;
    /** P(stuck-at) per clock net. */
    double stuckAtNet = 0.0;
    /** P(glitch) per clock net. */
    double transientGlitch = 0.0;
    /** P(severed) per handshake wire. */
    double severedHandshakeWire = 0.0;

    /** Delay-drift factor range (uniform draw, both > 1). */
    double driftFactorLo = 1.5;
    double driftFactorHi = 3.0;
    /** Transient-glitch pulse width (ns). */
    Time glitchWidth = 0.05;

    /** Every kind at probability @p rate (magnitudes at defaults). */
    static FaultRates uniform(double rate);

    /**
     * The resilience-sweep profile: dead buffers at @p rate, delay
     * drift at rate/2, stuck-at and glitches at rate/4 each, severed
     * wires at @p rate. Buffer faults dominate, matching the failure
     * statistics the TRIX comparison targets.
     */
    static FaultRates mixed(double rate);
};

/** Sites @p kind's Bernoulli pass ranges over in @p universe. */
std::size_t sitesOf(FaultKind kind, const FaultUniverse &universe);

/** Per-site probability of @p kind under @p rates. */
double rateOf(FaultKind kind, const FaultRates &rates);

/** A deterministic, reproducible list of faults for one trial. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Draw a plan for @p universe under @p rates from @p rng, every
     * fault at onset 0. Each fault kind consumes its own
     * rng.deriveStream(kind) substream.
     */
    static FaultPlan generate(const FaultUniverse &universe,
                              const FaultRates &rates, Rng &rng);

    /**
     * Convenience: the plan for trial @p trial of the experiment
     * seeded with @p seed, via the Rng::forTrial substream contract --
     * identical at any thread count.
     */
    static FaultPlan forTrial(const FaultUniverse &universe,
                              const FaultRates &rates,
                              std::uint64_t seed, std::uint64_t trial);

    /** A plan holding exactly one dead buffer at @p site. */
    static FaultPlan singleDeadBuffer(std::size_t site, Time onset = 0.0);

    /** A plan holding exactly one severed handshake wire @p wire. */
    static FaultPlan singleSeveredWire(std::size_t wire, Time onset = 0.0);

    /** All faults, in generation order. */
    const std::vector<Fault> &faults() const { return list; }

    /** Number of faults of @p kind in the plan. */
    std::size_t count(FaultKind kind) const;

    /** Total number of faults. */
    std::size_t size() const { return list.size(); }

    /** True when nothing breaks. */
    bool empty() const { return list.empty(); }

    /** Append one fault (for hand-built plans in tests/benches). */
    void add(const Fault &f) { list.push_back(f); }

    /**
     * RNG draws generate() consumed over its per-kind substreams (0
     * for hand-built plans). The substreams are derived, so the
     * caller's rng never sees these draws; exact draw accounting of a
     * trial adds them here.
     */
    std::uint64_t draws() const { return drawCount; }

    /** True when both plans list identical faults in the same order. */
    bool operator==(const FaultPlan &other) const;

  private:
    std::vector<Fault> list;
    std::uint64_t drawCount = 0;
};

} // namespace vsync::fault

#endif // VSYNC_FAULT_FAULT_PLAN_HH
