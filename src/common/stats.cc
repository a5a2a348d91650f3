#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace vsync
{

RunningStat::RunningStat()
{
    reset();
}

void
RunningStat::reset()
{
    n = 0;
    m = 0.0;
    m2 = 0.0;
    minValue = std::numeric_limits<double>::infinity();
    maxValue = -std::numeric_limits<double>::infinity();
    total = 0.0;
}

void
RunningStat::add(double x)
{
    ++n;
    const double delta = x - m;
    m += delta / static_cast<double>(n);
    m2 += delta * (x - m);
    minValue = std::min(minValue, x);
    maxValue = std::max(maxValue, x);
    total += x;
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n);
    const double nb = static_cast<double>(other.n);
    const double delta = other.m - m;
    const double combined = na + nb;
    m += delta * nb / combined;
    m2 += other.m2 + delta * delta * na * nb / combined;
    n += other.n;
    minValue = std::min(minValue, other.minValue);
    maxValue = std::max(maxValue, other.maxValue);
    total += other.total;
}

double
RunningStat::variance() const
{
    return n >= 2 ? m2 / static_cast<double>(n) : 0.0;
}

double
RunningStat::sampleVariance() const
{
    return n >= 2 ? m2 / static_cast<double>(n - 1) : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
SampleSet::add(double x)
{
    samples.push_back(x);
    sorted = false;
    running.add(x);
}

double
SampleSet::quantile(double q) const
{
    VSYNC_ASSERT(!samples.empty(), "quantile of empty sample set");
    VSYNC_ASSERT(q >= 0.0 && q <= 1.0, "quantile %g out of [0,1]", q);
    if (!sorted) {
        std::sort(samples.begin(), samples.end());
        sorted = true;
    }
    const double pos = q * static_cast<double>(samples.size() - 1);
    const std::size_t lo_idx = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi_idx = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo_idx);
    return samples[lo_idx] * (1.0 - frac) + samples[hi_idx] * frac;
}

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double
inverseNormalCdf(double p)
{
    VSYNC_ASSERT(p > 0.0 && p < 1.0, "quantile prob %g out of (0,1)", p);

    // Acklam's rational approximation.
    static const double a[] = {-3.969683028665376e+01,
                               2.209460984245205e+02,
                               -2.759285104469687e+02,
                               1.383577518672690e+02,
                               -3.066479806614716e+01,
                               2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01,
                               1.615858368580409e+02,
                               -1.556989798598866e+02,
                               6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03,
                               -3.223964580411365e-01,
                               -2.400758277161838e+00,
                               -2.549732539343734e+00,
                               4.374664141464968e+00,
                               2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03,
                               3.224671290700398e-01,
                               2.445134137142996e+00,
                               3.754408661907416e+00};

    const double p_low = 0.02425;
    double x;
    if (p < p_low) {
        const double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= 1.0 - p_low) {
        const double q = p - 0.5;
        const double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
             a[5]) *
            q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
             1.0);
    } else {
        const double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) *
                  q +
              c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }

    // One Halley refinement step.
    const double e = normalCdf(x) - p;
    const double u =
        e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
    x = x - u / (1.0 + x * u / 2.0);
    return x;
}

} // namespace vsync
