/**
 * @file
 * Golden byte digests of the resilience sweeps.
 *
 * tests/golden/resilience_digests.txt pins the raw sample bits of
 * mc::degradationCurve for the H-tree, spine and TRIX distributions on
 * 8x8 and 16x16 meshes at rates {0, 0.005, 0.02, 0.05, 0.2}: one FNV-1a
 * digest per point over every maxCommSkew and clockedFraction sample
 * and meanFaults. Any change to how a trial draws its plan or its wire
 * delays, or to how its first arrivals are computed, moves a digest.
 * Regenerate (only for an intended change of results) with
 * VSYNC_REGEN_GOLDEN=1 ./test_resilience_golden.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "layout/generators.hh"
#include "mc/resilience.hh"
#include "test_util.hh"

namespace
{

using namespace vsync;

using testutil::Fnv;

/** The digest file's contents, recomputed from the current code. */
std::string
computeDigests()
{
    const std::vector<double> rates{0.0, 0.005, 0.02, 0.05, 0.2};
    const mc::ResilienceConfig rc;
    mc::McConfig cfg;
    cfg.seed = 0x601de2;
    cfg.trials = 64;
    cfg.threads = 2;

    std::ostringstream out;
    for (const auto kind :
         {mc::DistributionKind::HTree, mc::DistributionKind::Spine,
          mc::DistributionKind::TrixGrid}) {
        for (const int side : {8, 16}) {
            const layout::Layout l = layout::meshLayout(side, side);
            const std::vector<mc::ResiliencePoint> curve =
                mc::degradationCurve(l, side, side, kind, rates, rc, cfg);
            for (const mc::ResiliencePoint &p : curve) {
                Fnv fnv;
                fnv.add(p.maxCommSkew.samples);
                fnv.add(p.clockedFraction.samples);
                fnv.add(p.meanFaults);
                out << mc::distributionKindName(kind) << ' ' << side << 'x'
                    << side << " rate=" << p.faultRate
                    << " trials=" << cfg.trials << " digest=" << fnv.hex()
                    << '\n';
            }
        }
    }
    return out.str();
}

TEST(ResilienceGolden, DigestsMatchTheFrozenFile)
{
    testutil::expectMatchesGolden(
        std::string(VSYNC_GOLDEN_DIR) + "/resilience_digests.txt",
        computeDigests(), "test_resilience_golden");
}

} // namespace
