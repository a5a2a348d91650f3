/**
 * @file
 * Tests for streaming statistics, quantiles and the normal quantile
 * function.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "common/stats.hh"

namespace
{

using vsync::RunningStat;
using vsync::SampleSet;

TEST(RunningStat, EmptyIsZero)
{
    RunningStat st;
    EXPECT_EQ(st.count(), 0u);
    EXPECT_DOUBLE_EQ(st.mean(), 0.0);
    EXPECT_DOUBLE_EQ(st.variance(), 0.0);
}

TEST(RunningStat, SimpleMoments)
{
    RunningStat st;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        st.add(x);
    EXPECT_DOUBLE_EQ(st.mean(), 5.0);
    EXPECT_DOUBLE_EQ(st.variance(), 4.0);
    EXPECT_DOUBLE_EQ(st.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(st.min(), 2.0);
    EXPECT_DOUBLE_EQ(st.max(), 9.0);
    EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(RunningStat, SampleVarianceUsesNMinusOne)
{
    RunningStat st;
    st.add(1.0);
    st.add(3.0);
    EXPECT_DOUBLE_EQ(st.variance(), 1.0);
    EXPECT_DOUBLE_EQ(st.sampleVariance(), 2.0);
}

TEST(RunningStat, MergeMatchesConcatenation)
{
    vsync::Rng rng(5);
    RunningStat all, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(3.0, 7.0);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-7);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, b;
    a.add(1.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(SampleSet, QuantilesOfKnownData)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-12);
    EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-12);
}

TEST(SampleSet, QuantileAfterMoreSamples)
{
    SampleSet s;
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.median(), 10.0);
    s.add(20.0);
    EXPECT_DOUBLE_EQ(s.median(), 15.0);
    s.add(0.0);
    EXPECT_DOUBLE_EQ(s.median(), 10.0);
}

TEST(NormalCdf, KnownValues)
{
    EXPECT_NEAR(vsync::normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(vsync::normalCdf(1.959963985), 0.975, 1e-6);
    EXPECT_NEAR(vsync::normalCdf(-1.0), 0.15865525, 1e-6);
}

TEST(InverseNormalCdf, RoundTripsThroughCdf)
{
    for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                     0.999}) {
        const double x = vsync::inverseNormalCdf(p);
        EXPECT_NEAR(vsync::normalCdf(x), p, 1e-8) << "p=" << p;
    }
}

TEST(InverseNormalCdf, KnownQuantiles)
{
    EXPECT_NEAR(vsync::inverseNormalCdf(0.5), 0.0, 1e-9);
    EXPECT_NEAR(vsync::inverseNormalCdf(0.975), 1.959964, 1e-5);
    EXPECT_NEAR(vsync::inverseNormalCdf(0.841344746), 1.0, 1e-6);
}

} // namespace
