#include "fault/injector.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace vsync::fault
{

FaultInjector::FaultInjector(desim::Simulator &sim, FaultPlan plan)
    : sim(sim), plan(std::move(plan))
{
}

void
FaultInjector::noteArmed(FaultKind kind)
{
    if (metrics)
        metrics->counter("fault.armed." + faultKindName(kind)).inc();
}

void
FaultInjector::killElement(desim::DelayElement &el, Time onset)
{
    // Capture the target, never the injector: scheduled faults must
    // outlive this object.
    desim::DelayElement *target = &el;
    if (onset <= sim.now())
        target->setDead(true);
    else
        sim.scheduleAt(onset, [target]() { target->setDead(true); });
    ++armedCount;
}

void
FaultInjector::driftElement(desim::DelayElement &el, Time onset,
                            double factor)
{
    desim::DelayElement *target = &el;
    if (onset <= sim.now())
        target->setDelayScale(factor);
    else
        sim.scheduleAt(onset,
                       [target, factor]() { target->setDelayScale(factor); });
    ++armedCount;
}

void
FaultInjector::stickSignal(desim::Signal &sig, Time onset, bool high)
{
    desim::Signal *target = &sig;
    if (onset <= sim.now())
        target->forceStuck(sim.now(), high);
    else
        sim.scheduleAt(onset,
                       [target, onset, high]() {
                           target->forceStuck(onset, high);
                       });
    ++armedCount;
}

void
FaultInjector::glitchSignal(desim::Signal &sig, Time onset, Time width)
{
    VSYNC_ASSERT(width > 0.0, "glitch width %g must be positive", width);
    desim::Signal *target = &sig;
    desim::Simulator *s = &sim;
    const Time start = std::max(onset, sim.now());
    // The spurious pulse inverts whatever level the net holds at onset
    // and restores it width later.
    sim.scheduleAt(start, [target, s, start, width]() {
        const bool orig = target->value();
        target->set(start, !orig);
        s->scheduleAt(start + width, [target, start, width, orig]() {
            target->set(start + width, orig);
        });
    });
    ++armedCount;
}

void
FaultInjector::armClockNet(desim::ClockNet &net)
{
    for (const Fault &f : plan.faults()) {
        switch (f.kind) {
          case FaultKind::DeadBuffer:
            killElement(net.element(f.site), f.onset);
            break;
          case FaultKind::DelayDrift:
            driftElement(net.element(f.site), f.onset, f.magnitude);
            break;
          case FaultKind::StuckAtNet:
            stickSignal(net.siteSignal(f.site), f.onset, f.stuckHigh);
            break;
          case FaultKind::TransientGlitch:
            glitchSignal(net.siteSignal(f.site), f.onset, f.magnitude);
            break;
          case FaultKind::SeveredHandshakeWire:
            continue; // no handshake wires on a clock net
        }
        noteArmed(f.kind);
    }
}

void
FaultInjector::armTrixGrid(TrixGrid &grid)
{
    for (const Fault &f : plan.faults()) {
        switch (f.kind) {
          case FaultKind::DeadBuffer:
            killElement(grid.link(f.site), f.onset);
            break;
          case FaultKind::DelayDrift:
            driftElement(grid.link(f.site), f.onset, f.magnitude);
            break;
          case FaultKind::StuckAtNet:
            stickSignal(grid.netSignal(f.site), f.onset, f.stuckHigh);
            break;
          case FaultKind::TransientGlitch:
            glitchSignal(grid.netSignal(f.site), f.onset, f.magnitude);
            break;
          case FaultKind::SeveredHandshakeWire:
            continue; // no handshake wires on a clock grid
        }
        noteArmed(f.kind);
    }
}

void
FaultInjector::armHandshakes(const std::vector<hybrid::HandshakePair *> &pairs)
{
    for (const Fault &f : plan.faults()) {
        if (f.kind != FaultKind::SeveredHandshakeWire)
            continue;
        const std::size_t pair = f.site / 2;
        VSYNC_ASSERT(pair < pairs.size(), "wire %zu beyond %zu pairs",
                     f.site, pairs.size());
        hybrid::HandshakePair &hp = *pairs[pair];
        killElement(f.site % 2 == 0 ? hp.requestWire()
                                    : hp.acknowledgeWire(),
                    f.onset);
        noteArmed(f.kind);
    }
}

FaultUniverse
universeOf(const clocktree::BufferedClockTree &tree)
{
    FaultUniverse u;
    u.bufferSites = tree.sites().size() - 1; // one element per non-root site
    u.clockNets = tree.sites().size();
    u.handshakeWires = 0;
    return u;
}

namespace
{

/** Fill the derived metrics of an outcome from its arrival vector. */
void
finishOutcome(const core::SkewKernel &kernel, const FaultPlan &plan,
              DistributionOutcome &out)
{
    const core::ArrivalSkew skew = kernel.arrivalSkew(out.cellArrival);
    out.clockedFraction = skew.clockedFraction;
    out.maxCommSkew = skew.maxCommSkew;
    out.clockedPairs = skew.clockedPairs;
    out.pairCount = skew.pairCount;
    out.faultCount = plan.size();
}

} // namespace

void
simulateTreeArrivalsUnderFaults(const core::SkewKernel &kernel,
                                const clocktree::BufferedClockTree &btree,
                                const desim::ClockNet::DelayFn &delay_of,
                                const FaultPlan &plan,
                                std::vector<Time> &cell_arrival)
{
    VSYNC_ASSERT(kernel.hasTree(),
                 "tree fault driver needs a tree-compiled kernel");
    desim::Simulator sim;
    desim::ClockNet net(sim, btree, delay_of);
    FaultInjector injector(sim, plan);
    injector.armClockNet(net);
    net.drive(1.0, 1);

    const std::size_t cells = kernel.cellCount();
    cell_arrival.assign(cells, infinity);
    for (CellId c = 0; c < static_cast<CellId>(cells); ++c) {
        const std::vector<Time> &arr =
            net.risingArrivals(kernel.nodeOfCell(c));
        if (!arr.empty())
            cell_arrival[c] = arr.front();
    }
}

DistributionOutcome
simulateTreeUnderFaults(const core::SkewKernel &kernel,
                        const clocktree::BufferedClockTree &btree,
                        const desim::ClockNet::DelayFn &delay_of,
                        const FaultPlan &plan)
{
    DistributionOutcome out;
    simulateTreeArrivalsUnderFaults(kernel, btree, delay_of, plan,
                                    out.cellArrival);
    finishOutcome(kernel, plan, out);
    return out;
}

void
simulateGridArrivalsUnderFaults(const core::SkewKernel &kernel, int rows,
                                int cols,
                                const TrixGrid::LinkDelayFn &delay_of,
                                const FaultPlan &plan,
                                std::vector<Time> &cell_arrival)
{
    VSYNC_ASSERT(static_cast<std::size_t>(rows) *
                         static_cast<std::size_t>(cols) ==
                     kernel.cellCount(),
                 "grid %dx%d does not cover %zu cells", rows, cols,
                 kernel.cellCount());
    desim::Simulator sim;
    TrixGrid grid(sim, rows, cols, delay_of);
    FaultInjector injector(sim, plan);
    injector.armTrixGrid(grid);
    grid.pulse();
    cell_arrival = grid.cellArrivals();
}

DistributionOutcome
simulateGridUnderFaults(const core::SkewKernel &kernel, int rows,
                        int cols, const TrixGrid::LinkDelayFn &delay_of,
                        const FaultPlan &plan)
{
    DistributionOutcome out;
    simulateGridArrivalsUnderFaults(kernel, rows, cols, delay_of, plan,
                                    out.cellArrival);
    finishOutcome(kernel, plan, out);
    return out;
}

} // namespace vsync::fault
