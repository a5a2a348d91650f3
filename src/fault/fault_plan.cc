#include "fault/fault_plan.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace vsync::fault
{

std::string
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::DeadBuffer:
        return "dead-buffer";
      case FaultKind::DelayDrift:
        return "delay-drift";
      case FaultKind::StuckAtNet:
        return "stuck-at-net";
      case FaultKind::TransientGlitch:
        return "transient-glitch";
      case FaultKind::SeveredHandshakeWire:
        return "severed-handshake-wire";
    }
    return "?";
}

FaultRates
FaultRates::uniform(double rate)
{
    VSYNC_ASSERT(rate >= 0.0 && rate <= 1.0, "bad fault rate %g", rate);
    FaultRates r;
    r.deadBuffer = rate;
    r.delayDrift = rate;
    r.stuckAtNet = rate;
    r.transientGlitch = rate;
    r.severedHandshakeWire = rate;
    return r;
}

FaultRates
FaultRates::mixed(double rate)
{
    VSYNC_ASSERT(rate >= 0.0 && rate <= 1.0, "bad fault rate %g", rate);
    FaultRates r;
    r.deadBuffer = rate;
    r.delayDrift = rate / 2.0;
    r.stuckAtNet = rate / 4.0;
    r.transientGlitch = rate / 4.0;
    r.severedHandshakeWire = rate;
    return r;
}

std::size_t
sitesOf(FaultKind kind, const FaultUniverse &u)
{
    switch (kind) {
      case FaultKind::DeadBuffer:
      case FaultKind::DelayDrift:
        return u.bufferSites;
      case FaultKind::StuckAtNet:
      case FaultKind::TransientGlitch:
        return u.clockNets;
      case FaultKind::SeveredHandshakeWire:
        return u.handshakeWires;
    }
    return 0;
}

double
rateOf(FaultKind kind, const FaultRates &r)
{
    switch (kind) {
      case FaultKind::DeadBuffer:
        return r.deadBuffer;
      case FaultKind::DelayDrift:
        return r.delayDrift;
      case FaultKind::StuckAtNet:
        return r.stuckAtNet;
      case FaultKind::TransientGlitch:
        return r.transientGlitch;
      case FaultKind::SeveredHandshakeWire:
        return r.severedHandshakeWire;
    }
    return 0.0;
}

FaultPlan
FaultPlan::generate(const FaultUniverse &universe, const FaultRates &rates,
                    Rng &rng)
{
    FaultPlan plan;
    for (int k = 0; k < faultKindCount; ++k) {
        const FaultKind kind = static_cast<FaultKind>(k);
        const double rate = rateOf(kind, rates);
        const std::size_t sites = sitesOf(kind, universe);
        // Every kind consumes its own substream so one kind's rate
        // never perturbs another kind's draws.
        Rng stream = rng.deriveStream(static_cast<std::uint64_t>(k));
        if (rate <= 0.0 || sites == 0)
            continue;
        for (std::size_t s = 0; s < sites; ++s) {
            if (!stream.bernoulli(rate))
                continue;
            Fault f;
            f.kind = kind;
            f.site = s;
            switch (kind) {
              case FaultKind::DelayDrift:
                f.magnitude = stream.uniform(rates.driftFactorLo,
                                             rates.driftFactorHi);
                break;
              case FaultKind::TransientGlitch:
                f.magnitude = rates.glitchWidth;
                break;
              case FaultKind::StuckAtNet:
                f.stuckHigh = stream.bernoulli(0.5);
                break;
              default:
                break;
            }
            plan.list.push_back(f);
        }
        plan.drawCount += stream.draws();
    }
    return plan;
}

FaultPlan
FaultPlan::forTrial(const FaultUniverse &universe, const FaultRates &rates,
                    std::uint64_t seed, std::uint64_t trial)
{
    Rng rng = Rng::forTrial(seed, trial);
    return generate(universe, rates, rng);
}

FaultPlan
FaultPlan::singleDeadBuffer(std::size_t site, Time onset)
{
    FaultPlan plan;
    plan.list.push_back({FaultKind::DeadBuffer, site, onset, 1.0, false});
    return plan;
}

FaultPlan
FaultPlan::singleSeveredWire(std::size_t wire, Time onset)
{
    FaultPlan plan;
    plan.list.push_back(
        {FaultKind::SeveredHandshakeWire, wire, onset, 1.0, false});
    return plan;
}

std::size_t
FaultPlan::count(FaultKind kind) const
{
    return static_cast<std::size_t>(std::count_if(
        list.begin(), list.end(),
        [kind](const Fault &f) { return f.kind == kind; }));
}

bool
FaultPlan::operator==(const FaultPlan &other) const
{
    if (list.size() != other.list.size())
        return false;
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Fault &a = list[i];
        const Fault &b = other.list[i];
        if (a.kind != b.kind || a.site != b.site || a.onset != b.onset ||
            a.magnitude != b.magnitude || a.stuckHigh != b.stuckHigh)
            return false;
    }
    return true;
}

} // namespace vsync::fault
