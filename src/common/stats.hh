/**
 * @file
 * Streaming statistics and percentiles.
 */

#ifndef VSYNC_COMMON_STATS_HH
#define VSYNC_COMMON_STATS_HH

#include <cstddef>
#include <vector>

namespace vsync
{

/**
 * Numerically stable streaming mean/variance/min/max accumulator
 * (Welford's algorithm).
 */
class RunningStat
{
  public:
    RunningStat();

    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    /** Reset to the empty state. */
    void reset();

    /** Number of observations. */
    std::size_t count() const { return n; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return n ? m : 0.0; }

    /** Population variance (0 when fewer than two samples). */
    double variance() const;

    /** Sample (n-1) variance (0 when fewer than two samples). */
    double sampleVariance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Smallest observation (+inf when empty). */
    double min() const { return minValue; }

    /** Largest observation (-inf when empty). */
    double max() const { return maxValue; }

    /** Sum of all observations. */
    double sum() const { return total; }

  private:
    std::size_t n;
    double m;
    double m2;
    double minValue;
    double maxValue;
    double total;
};

/**
 * A collection of samples with quantile queries. Keeps all samples; fine
 * for the experiment sizes used in this project.
 */
class SampleSet
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples. */
    std::size_t count() const { return samples.size(); }

    /**
     * Quantile by linear interpolation between closest ranks.
     *
     * @param q quantile in [0, 1].
     * @pre at least one sample present.
     */
    double quantile(double q) const;

    /** Median (quantile 0.5). */
    double median() const { return quantile(0.5); }

    /** Streaming statistics over the same samples. */
    const RunningStat &stat() const { return running; }

    /** Read-only access to the raw samples (unsorted). */
    const std::vector<double> &values() const { return samples; }

  private:
    mutable std::vector<double> samples;
    mutable bool sorted = false;
    RunningStat running;
};

/**
 * Inverse of the standard normal CDF (quantile function), accurate to
 * ~1e-9 over (0, 1) (Acklam's rational approximation plus one Halley
 * refinement step).
 *
 * @pre 0 < p < 1.
 */
double inverseNormalCdf(double p);

/** Standard normal CDF. */
double normalCdf(double x);

} // namespace vsync

#endif // VSYNC_COMMON_STATS_HH
