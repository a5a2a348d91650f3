/**
 * @file
 * Golden byte digests of the skew sweeps and of a mixed serving batch.
 *
 * tests/golden/skew_digests.txt pins the raw sample bits of
 * mc::skewSweep for the buffered H-tree and the spine on 8x8, 16x16 and
 * 32x32 meshes (64 trials, 2 threads), plus one serve::SweepService
 * batch mixing a skew request, an H-tree resilience point and a TRIX
 * resilience point. The batch requests start at a nonzero trialOffset
 * (the shape of a distributed shard) and use a grain that is no
 * multiple of any lane width, so every work unit ends in a narrower
 * remainder block. Any change to how a trial draws its wire delays or
 * its plan, to the lane blocking, or to the trial-order fold moves a
 * digest. Regenerate (only for an intended change of results) with
 * VSYNC_REGEN_GOLDEN=1 ./test_skew_golden.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "clocktree/builders.hh"
#include "layout/generators.hh"
#include "mc/sweeps.hh"
#include "serve/sweep_service.hh"
#include "test_util.hh"

namespace
{

using namespace vsync;

using testutil::Fnv;

const core::WireDelay kDelay{0.05, 0.005};

void
addStats(Fnv &fnv, const mc::McResult &r)
{
    fnv.add(r.samples);
    fnv.add(r.mean());
    fnv.add(r.stddev());
    fnv.add(r.min());
    fnv.add(r.max());
}

/** mc::skewSweep digests, one line per (tree, mesh). */
void
sweepDigests(std::ostringstream &out)
{
    mc::McConfig cfg;
    cfg.seed = 0x5e3d1a;
    cfg.trials = 64;
    cfg.threads = 2;
    for (const char *scheme : {"htree", "spine"}) {
        for (const int side : {8, 16, 32}) {
            const layout::Layout l = layout::meshLayout(side, side);
            const clocktree::ClockTree tree =
                std::string(scheme) == "htree"
                    ? clocktree::buildHTreeGrid(l, side, side)
                    : clocktree::buildSpine(l);
            Fnv fnv;
            addStats(fnv, mc::skewSweep(l, tree, kDelay, cfg));
            out << "skew " << scheme << ' ' << side << 'x' << side
                << " trials=" << cfg.trials << " digest=" << fnv.hex()
                << '\n';
        }
    }
}

/** One mixed SweepService batch, one line per request. */
void
serviceDigests(std::ostringstream &out)
{
    const layout::Layout l = layout::meshLayout(8, 8);
    const clocktree::ClockTree tree = clocktree::buildHTreeGrid(l, 8, 8);
    mc::McConfig cfg;
    cfg.seed = 0x5e4f1ce;
    cfg.trials = 40;
    cfg.grain = 13; // units of 13, 13, 13 and 1 trials

    serve::SkewRequest skew;
    skew.layout = &l;
    skew.tree = &tree;
    skew.delay = kDelay;
    skew.cfg = cfg;
    skew.trialOffset = 37;

    std::vector<serve::SweepRequest> batch{skew};
    for (const auto kind :
         {mc::DistributionKind::HTree, mc::DistributionKind::TrixGrid}) {
        serve::ResilienceRequest q;
        q.layout = &l;
        q.rows = 8;
        q.cols = 8;
        q.kind = kind;
        q.faultRate = 0.05;
        q.cfg = cfg;
        q.trialOffset = 37;
        batch.push_back(q);
    }

    serve::SweepService service(serve::ServiceConfig{2});
    const serve::BatchOutcome res = service.run(batch);
    for (std::size_t r = 0; r < res.outcomes.size(); ++r) {
        const serve::RequestOutcome &o = res.outcomes[r];
        ASSERT_EQ(o.status, serve::RequestStatus::Complete);
        Fnv fnv;
        if (r == 0) {
            addStats(fnv, o.skew);
        } else {
            addStats(fnv, o.resilience.maxCommSkew);
            addStats(fnv, o.resilience.clockedFraction);
            fnv.add(o.faultSamples);
            fnv.add(o.resilience.meanFaults);
        }
        out << "service request=" << r << " trials=" << o.trialsDone
            << " digest=" << fnv.hex() << '\n';
    }
}

TEST(SkewGolden, DigestsMatchTheFrozenFile)
{
    std::ostringstream out;
    sweepDigests(out);
    serviceDigests(out);
    testutil::expectMatchesGolden(
        std::string(VSYNC_GOLDEN_DIR) + "/skew_digests.txt", out.str(),
        "test_skew_golden");
}

} // namespace
