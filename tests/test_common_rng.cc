/**
 * @file
 * Tests for the deterministic random number generator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "test_util.hh"

namespace
{

using vsync::Rng;
using vsync::RunningStat;

TEST(SplitMix64, KnownSequenceIsDeterministic)
{
    vsync::SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(-3.5, 2.25);
        EXPECT_GE(u, -3.5);
        EXPECT_LT(u, 2.25);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(11);
    RunningStat st;
    for (int i = 0; i < 100000; ++i)
        st.add(rng.uniform());
    EXPECT_NEAR(st.mean(), 0.5, 0.01);
    EXPECT_NEAR(st.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversAllResidues)
{
    Rng rng(17);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10000; ++i)
        ++seen[rng.uniformInt(10)];
    for (int count : seen)
        EXPECT_GT(count, 700);
}

TEST(Rng, NormalMoments)
{
    Rng rng(19);
    RunningStat st;
    for (int i = 0; i < 200000; ++i)
        st.add(rng.normal());
    EXPECT_NEAR(st.mean(), 0.0, 0.01);
    EXPECT_NEAR(st.stddev(), 1.0, 0.01);
}

TEST(Rng, NormalScaled)
{
    Rng rng(23);
    RunningStat st;
    for (int i = 0; i < 100000; ++i)
        st.add(rng.normal(5.0, 2.0));
    EXPECT_NEAR(st.mean(), 5.0, 0.05);
    EXPECT_NEAR(st.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(29);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(31);
    RunningStat st;
    for (int i = 0; i < 100000; ++i)
        st.add(rng.exponential(4.0));
    EXPECT_NEAR(st.mean(), 4.0, 0.1);
    EXPECT_GE(st.min(), 0.0);
}

TEST(Rng, DerivedStreamsAreIndependentOfDrawCount)
{
    Rng a(99), b(99);
    // Consume from a before deriving; derived streams must match.
    for (int i = 0; i < 57; ++i)
        a.next();
    Rng da = a.deriveStream(5);
    Rng db = b.deriveStream(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(da.next(), db.next());
}

TEST(Rng, DerivedStreamsWithDifferentSaltsDiffer)
{
    Rng a(99);
    Rng s1 = a.deriveStream(1);
    Rng s2 = a.deriveStream(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += s1.next() == s2.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(RngFill, FillUniformReplaysScalarSequence)
{
    Rng bulk(4242), scalar(4242);
    std::vector<double> got(257); // odd, not a power of two
    bulk.fillUniform(-2.5, 7.75, got.data(), got.size(), 1);
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], scalar.uniform(-2.5, 7.75)) << "draw " << i;
    EXPECT_EQ(bulk.draws(), scalar.draws());
    // The streams stay in lockstep after the fill.
    EXPECT_EQ(bulk.next(), scalar.next());
}

TEST(RngFill, StridedFillMatchesContiguousFill)
{
    Rng a(77), b(77);
    constexpr std::size_t count = 64, stride = 5;
    std::vector<double> flat(count);
    std::vector<double> mat(count * stride, -1.0);
    a.fillUniform(0.0, 1.0, flat.data(), count, 1);
    b.fillUniform(0.0, 1.0, mat.data(), count, stride);
    for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(mat[i * stride], flat[i]) << i;
    // Slots between the strided writes are untouched.
    for (std::size_t i = 0; i < mat.size(); ++i) {
        if (i % stride != 0) {
            ASSERT_EQ(mat[i], -1.0) << i;
        }
    }
    EXPECT_EQ(a.draws(), b.draws());
}

TEST(RngFill, BulkFillPreservesDeriveStream)
{
    // deriveStream is a pure function of the seed and salt, so a
    // stream derived after a bulk fill equals one derived after the
    // equivalent scalar draws (and one derived with no draws at all).
    Rng bulk(99), scalar(99), fresh(99);
    std::vector<double> sink(33);
    bulk.fillUniform(0.0, 1.0, sink.data(), sink.size(), 1);
    for (int i = 0; i < 33; ++i)
        scalar.uniform();
    Rng da = bulk.deriveStream(5);
    Rng db = scalar.deriveStream(5);
    Rng dc = fresh.deriveStream(5);
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t v = da.next();
        ASSERT_EQ(v, db.next());
        ASSERT_EQ(v, dc.next());
    }
}

// --- Lane-interleaved kernel: every ISA against the scalar oracle. ---

/** Lanes on distinct streams, lane j already j * 3 draws in, so no two
 *  lanes share a stream position. */
std::vector<Rng>
staggeredLanes(std::size_t lanes, std::uint64_t seed)
{
    std::vector<Rng> out;
    for (std::size_t j = 0; j < lanes; ++j) {
        out.push_back(Rng::forTrial(seed, j));
        for (std::size_t d = 0; d < 3 * j; ++d)
            out.back().next();
    }
    return out;
}

/** Bitwise equality, so -0.0 vs 0.0 or a NaN payload would fail. */
void
expectSameBits(const std::vector<double> &got,
               const std::vector<double> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << what << " slot " << i;
}

TEST(RngLanes, BestIsaIsSupportedAndNamed)
{
    EXPECT_TRUE(vsync::rngIsaSupported(vsync::rngIsaBest()));
    EXPECT_TRUE(vsync::rngIsaSupported(vsync::RngIsa::Scalar));
    EXPECT_STREQ(vsync::rngIsaName(vsync::RngIsa::Scalar), "scalar");
    EXPECT_STREQ(vsync::rngIsaName(vsync::RngIsa::Avx2), "avx2");
    EXPECT_STREQ(vsync::rngIsaName(vsync::RngIsa::Avx512), "avx512");
}

TEST(RngLanes, EveryIsaMatchesScalarPropagation)
{
    // Random steps over a few rows, including in-place steps
    // (to == from) and steps that read rows written by earlier steps.
    constexpr double lo = 0.9, hi = 1.1;
    constexpr std::size_t rowCount = 9;
    constexpr double sentinel = -7.0;
    Rng shape(0x57e9);
    for (const vsync::RngIsa isa : vsync::testutil::supportedRngIsas()) {
        SCOPED_TRACE(vsync::rngIsaName(isa));
        for (std::size_t lanes = 1; lanes <= 17; ++lanes) {
            for (const std::size_t count : {0, 1, 63, 64, 65}) {
                std::vector<std::int32_t> from(count), to(count);
                std::vector<double> scale(count);
                for (std::size_t k = 0; k < count; ++k) {
                    from[k] = static_cast<std::int32_t>(
                        shape.uniformInt(rowCount));
                    to[k] = k % 5 == 0 ? from[k]
                                       : static_cast<std::int32_t>(
                                             shape.uniformInt(rowCount));
                    scale[k] = shape.uniform(0.0, 3.0);
                }
                const vsync::LaneSteps steps{from.data(), to.data(),
                                             scale.data(), count};
                // Odd strides: the tightest one and a padded one.
                for (const std::size_t stride :
                     {lanes | 1, (lanes | 1) + 4}) {
                    // Lane columns start random; padding columns hold
                    // a sentinel the kernel must leave untouched.
                    std::vector<double> rows(rowCount * stride + 1,
                                             sentinel);
                    for (std::size_t r = 0; r < rowCount; ++r)
                        for (std::size_t j = 0; j < lanes; ++j)
                            rows[r * stride + j] = shape.uniform(-1.0, 1.0);
                    std::vector<double> ref = rows;
                    std::vector<Rng> got =
                        staggeredLanes(lanes, 40 + count);
                    std::vector<Rng> want = got;

                    Rng::propagateUniformLanes(got, lo, hi, steps,
                                               rows.data(), stride, isa);
                    for (std::size_t j = 0; j < lanes; ++j) {
                        for (std::size_t k = 0; k < count; ++k) {
                            const double parent = ref[from[k] * stride + j];
                            ref[to[k] * stride + j] =
                                parent + want[j].uniform(lo, hi) * scale[k];
                        }
                    }
                    SCOPED_TRACE(::testing::Message()
                                 << lanes << " lanes, count " << count
                                 << ", stride " << stride);
                    expectSameBits(rows, ref, "propagate");
                    for (std::size_t j = 0; j < lanes; ++j) {
                        EXPECT_EQ(got[j].draws(), want[j].draws()) << j;
                        EXPECT_EQ(got[j].next(), want[j].next()) << j;
                    }
                }
            }
        }
    }
}

/** Property sweep: uniform(lo, hi) stays in range for many ranges. */
class UniformRangeTest
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(UniformRangeTest, StaysInRange)
{
    const auto [lo, hi] = GetParam();
    Rng rng(1234);
    for (int i = 0; i < 2000; ++i) {
        const double u = rng.uniform(lo, hi);
        EXPECT_GE(u, lo);
        EXPECT_LE(u, hi);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, UniformRangeTest,
    ::testing::Values(std::pair{0.0, 1.0}, std::pair{-1.0, 1.0},
                      std::pair{1e-9, 2e-9}, std::pair{-1e6, 1e6},
                      std::pair{5.0, 5.0}));

} // namespace
