#include "mc/resilience.hh"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "clocktree/buffering.hh"
#include "clocktree/builders.hh"
#include "common/logging.hh"
#include "core/skew_kernel.hh"
#include "fault/injector.hh"
#include "obs/metrics.hh"

namespace vsync::mc
{

std::string
distributionKindName(DistributionKind kind)
{
    switch (kind) {
      case DistributionKind::HTree:
        return "htree";
      case DistributionKind::Spine:
        return "spine";
      case DistributionKind::TrixGrid:
        return "trix-grid";
    }
    return "?";
}

namespace
{

/** Per-stage and per-net fault state bits of the compiled pass. */
enum : std::uint8_t
{
    /** The stage (tree element or grid link) is a dead buffer. */
    deadStage = 1,
    stuckLow = 2,
    stuckHigh = 4,
    glitched = 8,
};

/**
 * Per-thread scratch of the compiled pass, indexed by stage (tree
 * site i for the element feeding it, grid link) and by net (tree
 * site, grid node; the grid root is net rows * cols). Between trials
 * every slot holds the healthy state (flags 0, scale 1): a trial folds
 * its plan in and afterwards resets exactly the slots it touched.
 */
struct PassScratch
{
    std::vector<Time> delay;
    std::vector<double> scale;
    std::vector<std::uint8_t> stageFlags;
    std::vector<std::uint8_t> netFlags;
    /** Tree site arrivals. */
    std::vector<Time> arrival;

    /** Grow (never shrink) to @p stages and @p nets healthy slots. */
    void
    fit(std::size_t stages, std::size_t nets)
    {
        if (delay.size() < stages) {
            delay.resize(stages);
            scale.resize(stages, 1.0);
            stageFlags.resize(stages, 0);
            arrival.resize(stages);
        }
        if (netFlags.size() < nets)
            netFlags.resize(nets, 0);
    }
};

thread_local PassScratch passScratch;

/**
 * Abort unless the compiled pass reproduces desim for @p plan: every
 * fault applies at t = 0, and no dead or drifting stage is armed
 * after a stuck-at-high net (whose t = 0 rise would already be in
 * flight through it -- possible only in hand-built plans, since
 * generated plans list kinds in FaultKind order).
 */
void
requireCompilable(const fault::FaultPlan &plan)
{
    bool risen = false;
    for (const fault::Fault &f : plan.faults()) {
        VSYNC_ASSERT(f.onset == 0.0,
                     "fault onset %g: the compiled pass needs onset 0",
                     f.onset);
        if (f.kind == fault::FaultKind::StuckAtNet && f.stuckHigh)
            risen = true;
        else
            VSYNC_ASSERT(!risen ||
                             (f.kind != fault::FaultKind::DeadBuffer &&
                              f.kind != fault::FaultKind::DelayDrift),
                         "stage fault at site %zu armed after a "
                         "stuck-high net",
                         f.site);
    }
}

/**
 * Fold @p plan into @p ps (or, with @p undo, restore the slots it
 * touched). Buffer fault i hits stage i + @p stage_offset (tree
 * element i feeds site i + 1); net faults hit their net index.
 */
void
foldPlan(const fault::FaultPlan &plan, const fault::FaultUniverse &u,
         std::size_t stage_offset, PassScratch &ps, bool undo)
{
    for (const fault::Fault &f : plan.faults()) {
        switch (f.kind) {
          case fault::FaultKind::DeadBuffer:
          case fault::FaultKind::DelayDrift: {
            VSYNC_ASSERT(f.site < u.bufferSites, "buffer site %zu of %zu",
                         f.site, u.bufferSites);
            const std::size_t i = f.site + stage_offset;
            if (undo) {
                ps.stageFlags[i] = 0;
                ps.scale[i] = 1.0;
            } else if (f.kind == fault::FaultKind::DeadBuffer) {
                ps.stageFlags[i] = deadStage;
            } else {
                ps.scale[i] = f.magnitude;
            }
            break;
          }
          case fault::FaultKind::StuckAtNet:
          case fault::FaultKind::TransientGlitch: {
            VSYNC_ASSERT(f.site < u.clockNets, "clock net %zu of %zu",
                         f.site, u.clockNets);
            const std::uint8_t bit =
                f.kind == fault::FaultKind::TransientGlitch ? glitched
                : f.stuckHigh                               ? stuckHigh
                                                            : stuckLow;
            ps.netFlags[f.site] =
                undo ? 0 : static_cast<std::uint8_t>(
                               ps.netFlags[f.site] | bit);
            break;
          }
          case fault::FaultKind::SeveredHandshakeWire:
            break; // no handshake wires on a clock distribution
        }
    }
}

/**
 * First rise of a net whose stage(s) deliver the clock at @p driven:
 * a stuck-at-high net rose when it stuck (t = 0), a stuck-low one
 * never rises, and a glitch rises at t = 0, before any clock edge.
 */
inline Time
netArrival(std::uint8_t net, Time driven)
{
    if (net & stuckHigh)
        return 0.0;
    if (net & stuckLow)
        return infinity;
    return (net & glitched) ? 0.0 : driven;
}

/** Compiled tree pass: cell c's arrival to out[c * stride]. */
void
treeArrivals(const ResilienceScenario &s, const fault::FaultPlan &plan,
             Rng &delay_rng, Time *out, std::size_t stride)
{
    const std::size_t n = s.siteParent.size();
    PassScratch &ps = passScratch;
    ps.fit(n, n);
    // One unit delay per non-root site, in ClockNet construction order.
    Time *unit = ps.delay.data();
    delay_rng.fillUniform(s.rc.delay.lo(), s.rc.delay.hi(), unit + 1,
                          n - 1, 1);
    foldPlan(plan, s.universe, 1, ps, false);

    Time *a = ps.arrival.data();
    a[0] = netArrival(ps.netFlags[0], 0.0);
    for (std::size_t i = 1; i < n; ++i) {
        // The stage expression of the desim oracle's delay model.
        const Time stage = s.siteWire[i] * unit[i] +
                           (s.siteIsBuffer[i] ? s.rc.bufferDelay : 0.0);
        const Time driven = (ps.stageFlags[i] & deadStage)
                                ? infinity
                                : a[s.siteParent[i]] + stage * ps.scale[i];
        a[i] = ps.netFlags[i] ? netArrival(ps.netFlags[i], driven)
                              : driven;
    }
    foldPlan(plan, s.universe, 1, ps, true);

    for (std::size_t c = 0; c < s.cellSite.size(); ++c)
        out[c * stride] = a[s.cellSite[c]];
}

/** Compiled TRIX pass: node (r, c) to out[(r * cols + c) * stride]. */
void
gridArrivals(const ResilienceScenario &s, const fault::FaultPlan &plan,
             Rng &delay_rng, Time *out, std::size_t stride)
{
    const std::size_t nodes =
        static_cast<std::size_t>(s.rows) * static_cast<std::size_t>(s.cols);
    PassScratch &ps = passScratch;
    ps.fit(3 * nodes, nodes + 1);
    // One delay per link, in TrixGrid construction order (r, c, k).
    Time *d = ps.delay.data();
    delay_rng.fillUniform(s.rc.delay.lo(), s.rc.delay.hi(), d, 3 * nodes,
                          1);
    for (std::size_t l = 0; l < 3 * nodes; ++l)
        d[l] = s.rc.bufferDelay + d[l];
    foldPlan(plan, s.universe, 0, ps, false);

    const Time root = netArrival(ps.netFlags[nodes], 0.0);
    for (int r = 0; r < s.rows; ++r) {
        for (int c = 0; c < s.cols; ++c) {
            const std::size_t node =
                static_cast<std::size_t>(r) * s.cols + c;
            // Layer r - 1 feeds layer r; layer 0 hangs off the root.
            const Time *prev =
                r == 0 ? nullptr : out + (node - c - s.cols) * stride;
            std::array<Time, 3> in;
            for (int k = 0; k < 3; ++k) {
                const std::size_t l = 3 * node + k;
                const int pc = std::clamp(c - 1 + k, 0, s.cols - 1);
                const Time src = prev ? prev[pc * stride] : root;
                in[k] = (ps.stageFlags[l] & deadStage)
                            ? infinity
                            : src + d[l] * ps.scale[l];
            }
            // The median vote: the second link to deliver fires.
            const Time median =
                std::max(std::min(in[0], in[1]),
                         std::min(std::max(in[0], in[1]), in[2]));
            out[node * stride] = netArrival(ps.netFlags[node], median);
        }
    }
    foldPlan(plan, s.universe, 0, ps, true);
}

/** What one trial's arrival pass drew. */
struct TrialDraw
{
    /** Faults the plan injected. */
    std::size_t faults = 0;
    /** RNG draws of the plan's substreams and the delay substream. */
    std::uint64_t draws = 0;
};

/**
 * Trial @p trial of @p s: draw its plan and delays, write cell c's
 * first arrival to out[c * stride].
 */
TrialDraw
trialArrivals(const ResilienceScenario &s, std::uint64_t seed,
              std::uint64_t trial, const TrialCounters *counters,
              Time *out, std::size_t stride)
{
    Rng trial_rng = Rng::forTrial(seed, trial);
    Rng plan_rng = trial_rng.deriveStream(planSalt);
    Rng delay_rng = trial_rng.deriveStream(delaySalt);
    const fault::FaultPlan plan =
        fault::FaultPlan::generate(s.universe, s.rates, plan_rng);
    s.cellArrivals(plan, delay_rng, out, stride);
    if (counters) {
        for (const fault::Fault &f : plan.faults())
            if (obs::Counter *c =
                    counters->faultKinds[static_cast<std::size_t>(f.kind)])
                c->inc();
    }
    return {plan.size(), plan.draws() + delay_rng.draws()};
}

/**
 * cfg.trials trials of @p scenario through runChunks, on
 * @p pool or, when null, on a pool runChunks owns.
 */
ResiliencePoint
sweepScenario(const ResilienceScenario &scenario, double fault_rate,
              const McConfig &cfg, ThreadPool *pool)
{
    ResiliencePoint point;
    point.faultRate = fault_rate;
    point.maxCommSkew.samples.assign(cfg.trials, 0.0);
    point.clockedFraction.samples.assign(cfg.trials, 0.0);
    std::vector<double> faults(cfg.trials, 0.0);

    // Observability: per-kind injected-fault counters, resolved before
    // the fan-out (registration locks; Counter::inc is lock-free).
    TrialCounters counters;
    if (cfg.metrics) {
        for (int k = 0; k < fault::faultKindCount; ++k)
            counters.faultKinds[static_cast<std::size_t>(k)] =
                &cfg.metrics->counter(
                    "mc.resilience.faults." +
                    fault::faultKindName(static_cast<fault::FaultKind>(k)));
    }

    const ChunkFn chunk = [&](std::size_t begin, std::size_t end) {
        std::vector<Time> scratch; // reused across the chunk's blocks
        const std::size_t n = end - begin;
        return scenario.runTrialRange(
            cfg.seed, begin, {point.maxCommSkew.samples.data() + begin, n},
            {point.clockedFraction.samples.data() + begin, n},
            {faults.data() + begin, n}, cfg.metrics ? &counters : nullptr,
            scratch);
    };
    if (pool)
        runChunks(*pool, cfg, chunk);
    else
        runChunks(cfg, chunk);
    reduceInTrialOrder(point.maxCommSkew);
    reduceInTrialOrder(point.clockedFraction);
    double total = 0.0;
    for (const double f : faults)
        total += f;
    point.meanFaults = cfg.trials ? total / cfg.trials : 0.0;
    return point;
}

} // namespace

void
ResilienceScenario::cellArrivals(const fault::FaultPlan &plan,
                                 Rng &delay_rng, Time *out,
                                 std::size_t stride) const
{
    requireCompilable(plan);
    if (kind == DistributionKind::TrixGrid)
        gridArrivals(*this, plan, delay_rng, out, stride);
    else
        treeArrivals(*this, plan, delay_rng, out, stride);
}

fault::DistributionOutcome
ResilienceScenario::runTrial(std::uint64_t seed, std::uint64_t trial,
                             const TrialCounters *counters) const
{
    fault::DistributionOutcome out;
    out.cellArrival.resize(kernel->cellCount());
    out.faultCount = trialArrivals(*this, seed, trial, counters,
                                   out.cellArrival.data(), 1)
                         .faults;
    const core::ArrivalSkew skew = kernel->arrivalSkew(out.cellArrival);
    out.clockedFraction = skew.clockedFraction;
    out.maxCommSkew = skew.maxCommSkew;
    out.clockedPairs = skew.clockedPairs;
    out.pairCount = skew.pairCount;
    return out;
}

std::uint64_t
ResilienceScenario::runTrialBlock(
    std::uint64_t seed, std::uint64_t first_trial, std::size_t count,
    std::span<double> out_skew, std::span<double> out_clocked,
    std::span<double> out_faults, const TrialCounters *counters,
    std::vector<Time> &lane_scratch) const
{
    VSYNC_ASSERT(count >= 1 && count <= core::SkewKernel::maxLanes,
                 "%zu trials per block (1..%zu supported)", count,
                 core::SkewKernel::maxLanes);
    VSYNC_ASSERT(out_skew.size() == count &&
                     out_clocked.size() == count &&
                     out_faults.size() == count,
                 "output spans must cover the %zu block trials", count);
    const std::size_t stride = core::SkewKernel::laneStride(count);
    const std::size_t cells = kernel->cellCount();
    lane_scratch.resize(cells * stride);
    // Every trial writes its arrival surface straight into its lane
    // column; one blocked pair fold reduces them all.
    std::uint64_t draws = 0;
    for (std::size_t j = 0; j < count; ++j) {
        const TrialDraw t =
            trialArrivals(*this, seed, first_trial + j, counters,
                          lane_scratch.data() + j, stride);
        out_faults[j] = static_cast<double>(t.faults);
        draws += t.draws;
    }
    std::array<core::ArrivalSkew, core::SkewKernel::maxLanes> reduced;
    kernel->arrivalSkewBlock(
        std::span<const Time>(lane_scratch.data(), cells * stride),
        std::span<core::ArrivalSkew>(reduced.data(), count));
    for (std::size_t j = 0; j < count; ++j) {
        out_skew[j] = reduced[j].maxCommSkew;
        out_clocked[j] = reduced[j].clockedFraction;
    }
    return draws;
}

std::uint64_t
ResilienceScenario::runTrialRange(std::uint64_t seed,
                                  std::uint64_t first_trial,
                                  std::span<double> out_skew,
                                  std::span<double> out_clocked,
                                  std::span<double> out_faults,
                                  const TrialCounters *counters,
                                  std::vector<Time> &scratch) const
{
    const std::size_t n = out_skew.size();
    VSYNC_ASSERT(out_clocked.size() == n && out_faults.size() == n,
                 "output spans must cover the %zu range trials", n);
    constexpr std::size_t blockW = core::SkewKernel::blockWidth();
    std::uint64_t draws = 0;
    for (std::size_t i = 0; i < n; i += blockW) {
        const std::size_t w = std::min(blockW, n - i);
        draws += runTrialBlock(seed, first_trial + i, w,
                               out_skew.subspan(i, w),
                               out_clocked.subspan(i, w),
                               out_faults.subspan(i, w), counters, scratch);
    }
    return draws;
}

ResilienceScenario
compileResilienceScenario(const layout::Layout &l, int rows, int cols,
                          DistributionKind kind, double fault_rate,
                          const ResilienceConfig &rc,
                          const core::KernelProvider &kernels)
{
    VSYNC_ASSERT(static_cast<std::size_t>(rows) *
                         static_cast<std::size_t>(cols) ==
                     l.size(),
                 "grid %dx%d does not cover %zu cells", rows, cols,
                 l.size());
    ResilienceScenario s;
    s.kind = kind;
    s.rows = rows;
    s.cols = cols;
    s.rc = rc;
    s.rates = fault::FaultRates::mixed(fault_rate);
    if (kind == DistributionKind::TrixGrid) {
        s.universe = fault::TrixGrid::universe(rows, cols);
        s.kernel = kernels(l, nullptr);
        return s;
    }
    s.tree = kind == DistributionKind::HTree
                 ? clocktree::buildHTreeGrid(l, rows, cols)
                 : clocktree::buildSpine(l);
    s.btree = clocktree::BufferedClockTree::insertBuffers(s.tree,
                                                          rc.bufferSpacing);
    s.universe = fault::universeOf(s.btree);
    s.kernel = kernels(l, &s.tree);

    const std::vector<clocktree::BufferedSite> &sites = s.btree.sites();
    s.siteParent.assign(sites.size(), 0);
    s.siteWire.assign(sites.size(), 0.0);
    s.siteIsBuffer.assign(sites.size(), 0);
    for (std::size_t i = 1; i < sites.size(); ++i) {
        VSYNC_ASSERT(sites[i].parent >= 0 &&
                         static_cast<std::size_t>(sites[i].parent) < i,
                     "site %zu precedes its parent %d", i,
                     sites[i].parent);
        s.siteParent[i] = static_cast<std::uint32_t>(sites[i].parent);
        s.siteWire[i] = sites[i].wireFromParent;
        s.siteIsBuffer[i] = sites[i].isBuffer;
    }
    s.cellSite.resize(s.kernel->cellCount());
    for (std::size_t c = 0; c < s.cellSite.size(); ++c)
        s.cellSite[c] = static_cast<std::uint32_t>(s.btree.siteOfNode(
            s.kernel->nodeOfCell(static_cast<CellId>(c))));
    return s;
}

ResiliencePoint
resilienceAtRate(const layout::Layout &l, int rows, int cols,
                 DistributionKind kind, double fault_rate,
                 const ResilienceConfig &rc, const McConfig &cfg,
                 const core::KernelProvider &kernels)
{
    const ResilienceScenario scenario = compileResilienceScenario(
        l, rows, cols, kind, fault_rate, rc, kernels);
    return sweepScenario(scenario, fault_rate, cfg, nullptr);
}

std::vector<ResiliencePoint>
degradationCurve(const layout::Layout &l, int rows, int cols,
                 DistributionKind kind, const std::vector<double> &rates,
                 const ResilienceConfig &rc, const McConfig &cfg)
{
    std::vector<ResiliencePoint> curve;
    if (rates.empty())
        return curve;
    cfg.validate();
    // Only the rates differ between points: one compile, one pool.
    ResilienceScenario scenario = compileResilienceScenario(
        l, rows, cols, kind, rates.front(), rc, core::directCompile());
    ThreadPool pool(cfg.threads);
    curve.reserve(rates.size());
    for (const double rate : rates) {
        scenario.rates = fault::FaultRates::mixed(rate);
        curve.push_back(sweepScenario(scenario, rate, cfg, &pool));
    }
    return curve;
}

McResult
hybridSurvivalSweep(const hybrid::HybridNetwork &net, double fault_rate,
                    int rounds, const McConfig &cfg)
{
    const auto edges = net.partition().elementGraph.undirectedEdges();
    const int elements = net.partition().elementCount;
    VSYNC_ASSERT(elements > 0, "empty partition");
    fault::FaultUniverse universe;
    universe.handshakeWires = 2 * edges.size(); // req + ack per pair
    fault::FaultRates rates;
    rates.severedHandshakeWire = fault_rate;

    // A trial draws only from streams derived from its Rng::forTrial
    // stream, never from that stream itself, so each chunk counts the
    // plan's substream draws plus the jitter stream's.
    McResult r;
    r.samples.assign(cfg.trials, 0.0);
    runChunks(cfg, [&](std::size_t begin, std::size_t end) {
        std::uint64_t draws = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const Rng rng = Rng::forTrial(cfg.seed, i);
            Rng plan_rng = rng.deriveStream(planSalt);
            Rng jitter_rng = rng.deriveStream(delaySalt);
            const fault::FaultPlan plan =
                fault::FaultPlan::generate(universe, rates, plan_rng);

            // Map severed wires back to their element pairs; either
            // wire of a pair down means the handshake never completes.
            std::unordered_set<std::uint64_t> cut;
            for (const fault::Fault &f : plan.faults()) {
                const graph::Edge &e = edges[f.site / 2];
                const std::uint64_t lo = std::min(e.src, e.dst);
                const std::uint64_t hi = std::max(e.src, e.dst);
                cut.insert(lo << 32 | hi);
            }
            const hybrid::HybridNetwork::SeveredFn severed =
                [&cut](int a, int b) {
                    const std::uint64_t lo =
                        static_cast<std::uint64_t>(std::min(a, b));
                    const std::uint64_t hi =
                        static_cast<std::uint64_t>(std::max(a, b));
                    return cut.count(lo << 32 | hi) != 0;
                };

            const hybrid::HybridRunResult res =
                net.simulate(rounds, &jitter_rng, severed);
            std::size_t alive = 0;
            for (const Time t : res.lastCompletion)
                alive += t < infinity;
            r.samples[i] = static_cast<double>(alive) /
                           static_cast<double>(elements);
            draws += plan.draws() + jitter_rng.draws();
        }
        return draws;
    });
    reduceInTrialOrder(r);
    return r;
}

} // namespace vsync::mc
