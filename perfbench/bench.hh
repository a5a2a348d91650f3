/**
 * @file
 * Shared pieces of the repository benchmark: the run environment every
 * section reads, the metric report with its correctness accounting,
 * output digests, and the in-memory trace spans of a traced run.
 *
 * The benchmark measures the library from outside: every span wraps a
 * call into a public function of one module, so the program under test
 * is exactly what a user links.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank quantile, q in [0, 1] (0 when empty); +inf sorts last,
 *  so refused and lost requests count as missing any latency limit. */
double quantile(std::vector<double> v, double q);

/** Derive an independent 64-bit stream value from the run seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** FNV-1a over bit patterns: the output digest a speed-only change
 *  must leave unchanged. */
class Digest
{
  public:
    void add(double v);
    void add(std::span<const double> v);
    void addU64(std::uint64_t v);
    std::string hex() const;

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** A measured value and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a run measured, checked and digested. */
struct Report
{
    std::map<std::string, Metric> metrics;
    /** Operations (sweeps, requests, batches) attempted and failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False once any correctness check failed. */
    bool correct = true;
    std::vector<std::string> errors;
    /** Per-section output digest and simulated statistics. */
    std::map<std::string, std::string> outputs;

    void set(const std::string &name, double value,
             const std::string &unit);

    /** Count one operation; @p ok false counts it as failed. */
    void
    op(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }

    /** Record a correctness check; a false @p cond fails the run. */
    bool check(bool cond, const std::string &what);
};

/** One recorded span. Names are string literals. */
struct Span
{
    std::uint32_t id = 0;
    /** Enclosing span (0 = none). */
    std::uint32_t parent = 0;
    /** Operation the span belongs to (one sweep, request, batch). */
    std::uint32_t op = 0;
    const char *name = "";
    Clock::time_point begin;
    Clock::time_point end;
};

/**
 * In-memory span recorder. Spans are kept in a vector and written out
 * once, at the end of the run; a layer's self time is its span's
 * duration minus the time its child spans cover. Single-threaded: the
 * benchmark opens spans only on its main thread, and client threads
 * hand their timestamps back for add() after they joined.
 */
class Tracer
{
  public:
    /** Spans are recorded only while enabled. */
    void setEnabled(bool on) { enabledFlag = on; }
    bool enabled() const { return enabledFlag; }

    /** A fresh per-operation id. */
    std::uint32_t newOp() { return nextOp++; }

    /** Closes its span on destruction; no-op while disabled. */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name, std::uint32_t op);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer;
        std::size_t index = 0;
    };

    /** Open a span nested in the innermost open one. */
    Scope span(const char *name, std::uint32_t op)
    {
        return Scope(enabledFlag ? this : nullptr, name, op);
    }

    /** Record a span timed elsewhere; returns its id (0 if disabled). */
    std::uint32_t add(const char *name, std::uint32_t op,
                      std::uint32_t parent, Clock::time_point begin,
                      Clock::time_point end);

    struct Totals
    {
        double totalMs = 0.0;
        double selfMs = 0.0;
        std::uint64_t count = 0;
    };

    /** Aggregate duration, self time and count of spans named @p name. */
    Totals totals(const std::string &name) const;

    /** Every span name with its totals. */
    std::map<std::string, Totals> allTotals() const;

    std::size_t size() const { return spans.size(); }

    /** Write every span as JSON lines; false on an I/O error. */
    bool write(const std::string &path) const;

  private:
    bool enabledFlag = false;
    std::vector<Span> spans;
    std::vector<std::size_t> open;
    std::uint32_t nextOp = 1;
};

/** The run environment shared by every section. */
struct Env
{
    std::uint64_t seed = 0;
    /** Compute pool width of every sweep and server; never above the
     *  host's hardware concurrency and never taken from VSYNC_THREADS. */
    unsigned width = 1;
    Tracer *tracer = nullptr;
    Report *report = nullptr;
};

/**
 * One measured path of the system. Construction is the section's
 * set-up (timed into setup_s). A measurement is begin(), then
 * measure() once per round -- the driver interleaves the sections in
 * rounds, so slow drift of the host spreads over every path alike --
 * then finish(); layers() runs in traced runs only.
 */
class Section
{
  public:
    virtual ~Section() = default;

    /** Forget the samples of earlier rounds. */
    virtual void begin() = 0;

    /** One round: measure for about @p seconds, keeping the samples. */
    virtual void measure(double seconds) = 0;

    /**
     * Set the end-to-end metrics from every round since begin() and
     * return the median seconds of one primary operation, which a
     * traced run compares with an untraced one for
     * obs.trace_overhead_frac.
     */
    virtual double finish() = 0;

    /** Traced runs: time each layer call for about @p seconds and set
     *  the per-layer metrics. */
    virtual void layers(double seconds) = 0;
};

std::unique_ptr<Section> makeSkewSection(const Env &env);
std::unique_ptr<Section> makeResilienceSection(const Env &env);
std::unique_ptr<Section> makeServeSection(const Env &env);
std::unique_ptr<Section> makeFleetSection(const Env &env);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
