/**
 * @file
 * The compiled resilience pass against its desim oracle.
 *
 * mc::ResilienceScenario::cellArrivals computes first arrivals in one
 * forward pass; fault::simulate{Tree,Grid}ArrivalsUnderFaults drive a
 * full desim world. For random onset-0 plans and hand-built edge cases
 * the two must agree bit for bit, arrival by arrival, and consume the
 * same number of delay draws. Plans the pass does not cover abort.
 * The sweep's lockstep plan draw, mc::drawPlanBlock, is checked the
 * same way against its oracle FaultPlan::generate on every ISA, and
 * the sweep's lane pass, mc::ResilienceScenario::runTrialBlock,
 * against the one-trial runTrial.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "layout/generators.hh"
#include "mc/resilience.hh"
#include "test_util.hh"

namespace
{

using namespace vsync;
using fault::Fault;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultRates;

const std::array<mc::DistributionKind, 3> kKinds = {
    mc::DistributionKind::HTree, mc::DistributionKind::Spine,
    mc::DistributionKind::TrixGrid};

/** A compiled scenario with the layout it was compiled from. */
struct Scenario
{
    std::unique_ptr<layout::Layout> layout;
    mc::ResilienceScenario s;

    Scenario(int side, mc::DistributionKind kind)
        : layout(std::make_unique<layout::Layout>(
              layout::meshLayout(side, side)))
    {
        s = mc::compileResilienceScenario(*layout, side, side, kind, 0.05,
                                          mc::ResilienceConfig{},
                                          core::directCompile());
    }
};

/** The oracle: desim arrivals of @p plan, delays drawn from @p rng as
 *  the resilience delay model defines them. */
std::vector<Time>
oracleArrivals(const mc::ResilienceScenario &s, const FaultPlan &plan,
              Rng &rng)
{
    const mc::ResilienceConfig &rc = s.rc;
    std::vector<Time> arrival;
    if (s.kind == mc::DistributionKind::TrixGrid) {
        fault::simulateGridArrivalsUnderFaults(
            *s.kernel, s.rows, s.cols,
            [&](int, int, int) {
                return rc.bufferDelay +
                       rng.uniform(rc.delay.lo(), rc.delay.hi());
            },
            plan, arrival);
    } else {
        fault::simulateTreeArrivalsUnderFaults(
            *s.kernel, s.btree,
            [&](const clocktree::BufferedSite &site, std::size_t) {
                const double unit =
                    rng.uniform(rc.delay.lo(), rc.delay.hi());
                return desim::EdgeDelays::same(
                    site.wireFromParent * unit +
                    (site.isBuffer ? rc.bufferDelay : 0.0));
            },
            plan, arrival);
    }
    return arrival;
}

/**
 * Run @p plan through cellArrivals and through desim on copies of one
 * delay stream; expect bitwise-equal arrivals and equal draw counts.
 */
void
expectMatchesOracle(const mc::ResilienceScenario &s, const FaultPlan &plan,
                    std::uint64_t delay_seed, const std::string &what)
{
    Rng compiledRng(delay_seed);
    Rng desimRng(delay_seed);
    std::vector<Time> got(s.kernel->cellCount(), -1.0);
    s.cellArrivals(plan, compiledRng, got.data());
    const std::vector<Time> want = oracleArrivals(s, plan, desimRng);
    EXPECT_EQ(compiledRng.draws(), desimRng.draws()) << what;
    EXPECT_EQ(got.size(), want.size()) << what;
    for (std::size_t c = 0; c < got.size() && c < want.size(); ++c) {
        if (std::bit_cast<std::uint64_t>(got[c]) !=
            std::bit_cast<std::uint64_t>(want[c])) {
            ADD_FAILURE() << what << ": cell " << c << " compiled "
                          << got[c] << " desim " << want[c] << " ("
                          << plan.size() << " faults)";
            break;
        }
    }
}

/** A hand-built fault striking at t = 0. */
Fault
immediate(FaultKind kind, std::size_t site, double magnitude = 1.0,
          bool stuck_high = false)
{
    return Fault{kind, site, 0.0, magnitude, stuck_high};
}

FaultPlan
planOf(std::initializer_list<Fault> faults)
{
    FaultPlan plan;
    for (const Fault &f : faults)
        plan.add(f);
    return plan;
}

TEST(ResilienceCompiled, RandomOnsetZeroPlansMatchDesim)
{
    const std::array<double, 5> rates = {0.01, 0.03, 0.1, 0.2, 0.3};
    for (const mc::DistributionKind kind : kKinds) {
        std::size_t plans = 0;
        std::array<std::size_t, fault::faultKindCount> byKind{};
        for (const auto &[side, count] :
             {std::pair{5, 250}, std::pair{8, 200}, std::pair{16, 100}}) {
            const Scenario sc(side, kind);
            for (int t = 0; t < count; ++t) {
                const double rate = rates[t % rates.size()];
                // Alternate the sweep profile with all kinds at `rate`,
                // which packs stuck-at and glitch faults densely.
                const FaultRates fr = t % 2 ? FaultRates::uniform(rate)
                                            : FaultRates::mixed(rate);
                const FaultPlan plan =
                    FaultPlan::forTrial(sc.s.universe, fr, 0xc0de, t);
                for (const Fault &f : plan.faults())
                    ++byKind[static_cast<std::size_t>(f.kind)];
                const std::string what =
                    mc::distributionKindName(kind) + " " +
                    std::to_string(side) + "x" + std::to_string(side) +
                    " plan " + std::to_string(t);
                expectMatchesOracle(sc.s, plan, 1000 + t, what);
                ++plans;
            }
        }
        EXPECT_GE(plans, 500u);
        for (int k = 0; k < 4; ++k)
            EXPECT_GT(byKind[static_cast<std::size_t>(k)], 100u)
                << mc::distributionKindName(kind) << " kind " << k;
    }
}

TEST(ResilienceCompiled, TreeEdgeCasesMatchDesim)
{
    for (const mc::DistributionKind kind :
         {mc::DistributionKind::HTree, mc::DistributionKind::Spine}) {
        const Scenario sc(8, kind);
        const mc::ResilienceScenario &s = sc.s;
        // A leaf site, its parent and an ancestor two levels above.
        const std::size_t leaf = s.cellSite[9];
        const std::size_t mid = s.siteParent[leaf];
        const std::size_t top = s.siteParent[mid];
        ASSERT_GT(top, 0u);
        const double width = FaultRates{}.glitchWidth;
        const std::vector<std::pair<std::string, FaultPlan>> cases = {
            {"glitch on the root",
             planOf({immediate(FaultKind::TransientGlitch, 0, width)})},
            {"stuck-high root",
             planOf({immediate(FaultKind::StuckAtNet, 0, 1.0, true)})},
            {"stuck-low root + glitch on the root",
             planOf({immediate(FaultKind::StuckAtNet, 0),
                     immediate(FaultKind::TransientGlitch, 0, width)})},
            {"stuck-low root + glitched leaf",
             planOf({immediate(FaultKind::StuckAtNet, 0),
                     immediate(FaultKind::TransientGlitch, leaf, width)})},
            {"stuck-high + glitch on one net",
             planOf({immediate(FaultKind::StuckAtNet, mid, 1.0, true),
                     immediate(FaultKind::TransientGlitch, mid, width)})},
            {"stuck-low ancestor, glitched descendant",
             planOf({immediate(FaultKind::StuckAtNet, top),
                     immediate(FaultKind::TransientGlitch, leaf, width)})},
            {"dead stage under a glitched net",
             planOf({immediate(FaultKind::DeadBuffer, leaf - 1),
                     immediate(FaultKind::TransientGlitch, mid, width)})},
            {"dead + drifting stage, stuck-high parent",
             planOf({immediate(FaultKind::DeadBuffer, mid - 1),
                     immediate(FaultKind::DelayDrift, mid - 1, 2.5),
                     immediate(FaultKind::StuckAtNet, top, 1.0, true)})},
            {"drift below a glitch",
             planOf({immediate(FaultKind::DelayDrift, leaf - 1, 1.75),
                     immediate(FaultKind::DelayDrift, mid - 1, 2.25),
                     immediate(FaultKind::TransientGlitch, top, width)})},
            {"stuck-high then stuck-low on one net",
             planOf({immediate(FaultKind::StuckAtNet, mid, 1.0, true),
                     immediate(FaultKind::StuckAtNet, mid)})},
        };
        for (const auto &[name, plan] : cases) {
            const std::string what =
                mc::distributionKindName(kind) + ": " + name;
            expectMatchesOracle(s, plan, 7, what);
        }
    }
}

TEST(ResilienceCompiled, TrixEdgeCasesMatchDesim)
{
    const int side = 8;
    const Scenario sc(side, mc::DistributionKind::TrixGrid);
    const mc::ResilienceScenario &s = sc.s;
    const std::size_t root = static_cast<std::size_t>(side * side);
    const auto node = [&](int r, int c) {
        return static_cast<std::size_t>(r * side + c);
    };
    const auto link = [&](int r, int c, int k) {
        return 3 * node(r, c) + static_cast<std::size_t>(k);
    };
    const double width = FaultRates{}.glitchWidth;
    const std::vector<std::pair<std::string, FaultPlan>> cases = {
        {"glitch on the root",
         planOf({immediate(FaultKind::TransientGlitch, root, width)})},
        {"stuck-low root",
         planOf({immediate(FaultKind::StuckAtNet, root)})},
        {"stuck-low root, glitched layer-2 node",
         planOf({immediate(FaultKind::StuckAtNet, root),
                 immediate(FaultKind::TransientGlitch, node(2, 3), width)})},
        {"two dead links into one node",
         planOf({immediate(FaultKind::DeadBuffer, link(3, 4, 0)),
                 immediate(FaultKind::DeadBuffer, link(3, 4, 1))})},
        {"three dead links, glitched node",
         planOf({immediate(FaultKind::DeadBuffer, link(3, 4, 0)),
                 immediate(FaultKind::DeadBuffer, link(3, 4, 1)),
                 immediate(FaultKind::DeadBuffer, link(3, 4, 2)),
                 immediate(FaultKind::TransientGlitch, node(3, 4), width)})},
        {"left edge: far link dead, doubled links vote",
         planOf({immediate(FaultKind::DeadBuffer, link(4, 0, 2)),
                 immediate(FaultKind::DelayDrift, link(4, 0, 0), 2.0)})},
        {"left edge: one doubled link dead, other drifting",
         planOf({immediate(FaultKind::DeadBuffer, link(4, 0, 0)),
                 immediate(FaultKind::DelayDrift, link(4, 0, 1), 2.9)})},
        {"right edge: both doubled links dead",
         planOf({immediate(FaultKind::DeadBuffer, link(5, side - 1, 1)),
                 immediate(FaultKind::DeadBuffer, link(5, side - 1, 2))})},
        {"stuck-high + glitch on one node",
         planOf({immediate(FaultKind::StuckAtNet, node(1, 1), 1.0, true),
                 immediate(FaultKind::TransientGlitch, node(1, 1), width)})},
        {"stuck-low ancestor, glitched descendant",
         planOf({immediate(FaultKind::StuckAtNet, node(2, 2)),
                 immediate(FaultKind::StuckAtNet, node(2, 3)),
                 immediate(FaultKind::TransientGlitch, node(4, 3), width)})},
        {"glitched node feeding drifted links",
         planOf({immediate(FaultKind::DelayDrift, link(3, 2, 1), 1.6),
                 immediate(FaultKind::DelayDrift, link(3, 2, 2), 2.4),
                 immediate(FaultKind::TransientGlitch, node(2, 2), width)})},
    };
    for (const auto &[name, plan] : cases)
        expectMatchesOracle(s, plan, 11, "trix: " + name);
}

TEST(ResilienceCompiledDeath, UncoveredPlansAbort)
{
    testutil::useThreadsafeDeathTests();
    for (const mc::DistributionKind kind : kKinds) {
        const Scenario sc(5, kind);
        const std::string name = mc::distributionKindName(kind);
        // The same dead buffer at t = 0 and striking mid-pulse.
        const FaultPlan early = planOf({immediate(FaultKind::DeadBuffer, 3)});
        FaultPlan late;
        late.add(Fault{FaultKind::DeadBuffer, 3, 0.3, 1.0, false});
        expectMatchesOracle(sc.s, early, 5, name + " early");
        std::vector<Time> out(sc.s.kernel->cellCount());
        Rng rng(5);
        EXPECT_DEATH(sc.s.cellArrivals(late, rng, out.data()), "onset")
            << name;
        // A stage killed after a stuck-high net already rose through it.
        const FaultPlan reordered =
            planOf({immediate(FaultKind::StuckAtNet, 0, 1.0, true),
                    immediate(FaultKind::DeadBuffer, 0)});
        EXPECT_DEATH(sc.s.cellArrivals(reordered, rng, out.data()),
                     "stuck-high")
            << name;
    }
}

TEST(ResilienceCompiled, CurvePointsEqualPerRateSweeps)
{
    // degradationCurve compiles once and reuses one pool; every point
    // must still be bitwise the standalone resilienceAtRate sweep.
    const layout::Layout l = layout::meshLayout(6, 6);
    const std::vector<double> rates{0.0, 0.05, 0.3};
    mc::McConfig cfg;
    cfg.seed = 0xc0e;
    cfg.trials = 29;
    cfg.grain = 5;
    cfg.threads = 2;
    for (const mc::DistributionKind kind : kKinds) {
        const std::vector<mc::ResiliencePoint> curve = mc::degradationCurve(
            l, 6, 6, kind, rates, mc::ResilienceConfig{}, cfg);
        ASSERT_EQ(curve.size(), rates.size());
        EXPECT_GT(curve[2].meanFaults, 0.0)
            << mc::distributionKindName(kind);
        for (std::size_t r = 0; r < rates.size(); ++r) {
            const mc::ResiliencePoint p =
                mc::resilienceAtRate(l, 6, 6, kind, rates[r],
                                     mc::ResilienceConfig{}, cfg);
            EXPECT_EQ(curve[r].faultRate, p.faultRate);
            EXPECT_TRUE(curve[r].maxCommSkew.bitIdentical(p.maxCommSkew));
            EXPECT_TRUE(
                curve[r].clockedFraction.bitIdentical(p.clockedFraction));
            EXPECT_EQ(curve[r].meanFaults, p.meanFaults);
        }
    }
}

TEST(ResilienceCompiled, LockstepPlansMatchGenerateOnEveryIsa)
{
    // drawPlanBlock against its oracle FaultPlan::generate: random
    // universes (a kind may have 0 or 1 sites), per-kind rates up to 1
    // (every lane hits every site, so the lane cursors diverge most),
    // block widths 1-8 at nonzero first trials, on every lane-kernel
    // ISA. Each lane must list generate's faults in generation order
    // and count its draws.
    const std::array<double, 6> kRates = {0.0, 1e-4, 0.005, 0.05, 0.5, 1.0};
    mc::PlanBlock block;
    for (const RngIsa isa : testutil::supportedRngIsas()) {
        Rng pick(0x91a7);
        for (int round = 0; round < 96; ++round) {
            const auto sites = [&]() -> std::size_t {
                const std::uint64_t c = pick.uniformInt(4);
                return c < 2 ? c : pick.uniformInt(400);
            };
            fault::FaultUniverse u;
            u.bufferSites = sites();
            u.clockNets = sites();
            u.handshakeWires = sites();
            FaultRates rates;
            rates.deadBuffer = kRates[pick.uniformInt(kRates.size())];
            rates.delayDrift = kRates[pick.uniformInt(kRates.size())];
            rates.stuckAtNet = kRates[pick.uniformInt(kRates.size())];
            rates.transientGlitch = kRates[pick.uniformInt(kRates.size())];
            rates.severedHandshakeWire =
                kRates[pick.uniformInt(kRates.size())];
            const std::uint64_t seed = pick.next();
            const std::uint64_t first = 1 + pick.uniformInt(1u << 20);
            const std::size_t width = 1 + round % mc::PlanBlock::lanes;
            const std::string what = std::string(rngIsaName(isa)) +
                                     " round " + std::to_string(round);

            const std::uint64_t draws =
                mc::drawPlanBlock(u, rates, seed, first, width, block, isa);
            std::uint64_t want_draws = 0;
            for (std::size_t j = 0; j < width; ++j) {
                Rng rng = Rng::forTrial(seed, first + j)
                              .deriveStream(mc::planSalt);
                const FaultPlan plan = FaultPlan::generate(u, rates, rng);
                const std::vector<Fault> &hits = block.hits[j];
                const std::string lane = what + " lane " + std::to_string(j);
                ASSERT_EQ(hits.size(), plan.size()) << lane;
                for (int k = 0; k < fault::faultKindCount; ++k) {
                    const FaultKind kind = static_cast<FaultKind>(k);
                    EXPECT_EQ(std::count_if(hits.begin(), hits.end(),
                                            [&](const Fault &h) {
                                                return h.kind == kind;
                                            }),
                              static_cast<std::ptrdiff_t>(plan.count(kind)))
                        << lane << " " << fault::faultKindName(kind);
                }
                for (std::size_t i = 0; i < hits.size(); ++i) {
                    const Fault &f = plan.faults()[i];
                    const Fault &h = hits[i];
                    ASSERT_TRUE(h.kind == f.kind && h.site == f.site &&
                                h.onset == f.onset &&
                                std::bit_cast<std::uint64_t>(h.magnitude) ==
                                    std::bit_cast<std::uint64_t>(
                                        f.magnitude) &&
                                h.stuckHigh == f.stuckHigh)
                        << lane << " fault " << i << ": "
                        << fault::faultKindName(h.kind) << "@" << h.site
                        << " x" << h.magnitude << " vs "
                        << fault::faultKindName(f.kind) << "@" << f.site
                        << " x" << f.magnitude;
                }
                EXPECT_EQ(block.draws[j], plan.draws()) << lane;
                want_draws += plan.draws();
            }
            EXPECT_EQ(draws, want_draws) << what;
        }
    }
}

TEST(ResilienceCompiled, LanePassMatchesRunTrialOnEveryIsa)
{
    // runTrialBlock runs eight trials per lane group through one pass
    // and one pair fold; each trial must be bitwise runTrial's, which
    // draws its plan with FaultPlan::generate and runs the one-trial
    // pass. Every lane-kernel ISA, every distribution on a non-square
    // mesh, rates from healthy to every site faulted, and widths that
    // leave a partial lane group (1, 3, 7, 13) or fill one (8), at a
    // nonzero first trial. The returned draws must be the plan and
    // delay draws of those trials.
    constexpr int rows = 5;
    constexpr int cols = 7;
    constexpr std::uint64_t seed = 0x1a9e;
    const layout::Layout l = layout::meshLayout(rows, cols);
    const std::array<double, 5> kRates = {0.0, 0.005, 0.05, 0.5, 1.0};
    const std::array<std::size_t, 5> kWidths = {1, 3, 7, 8, 13};
    for (const RngIsa isa : testutil::supportedRngIsas()) {
        for (const mc::DistributionKind kind : kKinds) {
            for (const double rate : kRates) {
                const mc::ResilienceScenario s =
                    mc::compileResilienceScenario(
                        l, rows, cols, kind, rate, mc::ResilienceConfig{},
                        core::directCompile());
                std::vector<Time> scratch;
                for (const std::size_t w : kWidths) {
                    const std::uint64_t first = 17 + 3 * w;
                    const std::string what =
                        std::string(rngIsaName(isa)) + " " +
                        mc::distributionKindName(kind) + " rate " +
                        std::to_string(rate) + " width " +
                        std::to_string(w);
                    std::vector<double> skew(w), clocked(w), faults(w);
                    const std::uint64_t draws = s.runTrialBlock(
                        seed, first, w, std::span<double>(skew),
                        std::span<double>(clocked),
                        std::span<double>(faults), nullptr, scratch, isa);
                    std::uint64_t want_draws = 0;
                    for (std::size_t j = 0; j < w; ++j) {
                        const fault::DistributionOutcome ref =
                            s.runTrial(seed, first + j);
                        const std::string lane =
                            what + " lane " + std::to_string(j);
                        EXPECT_EQ(std::bit_cast<std::uint64_t>(skew[j]),
                                  std::bit_cast<std::uint64_t>(
                                      ref.maxCommSkew))
                            << lane << ": " << skew[j] << " vs "
                            << ref.maxCommSkew;
                        EXPECT_EQ(std::bit_cast<std::uint64_t>(clocked[j]),
                                  std::bit_cast<std::uint64_t>(
                                      ref.clockedFraction))
                            << lane;
                        EXPECT_EQ(faults[j],
                                  static_cast<double>(ref.faultCount))
                            << lane;
                        // runTrial's draws: the plan substreams plus
                        // the delay stream its pass reads.
                        const Rng trial = Rng::forTrial(seed, first + j);
                        Rng plan_rng = trial.deriveStream(mc::planSalt);
                        Rng delay_rng = trial.deriveStream(mc::delaySalt);
                        const FaultPlan plan =
                            FaultPlan::generate(s.universe, s.rates, plan_rng);
                        std::vector<Time> arrival(s.kernel->cellCount());
                        s.cellArrivals(plan, delay_rng, arrival.data());
                        want_draws += plan.draws() + delay_rng.draws();
                    }
                    EXPECT_EQ(draws, want_draws) << what;
                }
            }
        }
    }
}

} // namespace
