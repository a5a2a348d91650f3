/**
 * @file
 * Sinks: where observability output goes.
 *
 * A Sink is the pluggable back end for rendered observability records
 * -- metrics snapshots (MetricsRegistry::flush) and log lines
 * (common/logging routes through a sink when one is installed, see
 * attachLogSink; with none, log lines go to stderr). CaptureSink
 * buffers in memory, so tests can assert on what was emitted.
 */

#ifndef VSYNC_OBS_SINK_HH
#define VSYNC_OBS_SINK_HH

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace vsync::obs
{

/** Consumer of rendered observability records. */
class Sink
{
  public:
    virtual ~Sink() = default;

    /** A complete metrics snapshot, rendered as a JSON document. */
    virtual void onMetricsJson(const std::string &json) = 0;

    /** One log line that passed the level filter. */
    virtual void onLogLine(LogLevel level, const std::string &line) = 0;
};

/** Buffers everything in memory; tests assert on the buffers. */
class CaptureSink : public Sink
{
  public:
    void onMetricsJson(const std::string &json) override;
    void onLogLine(LogLevel level, const std::string &line) override;

    /** Metrics snapshots received, in order. */
    std::vector<std::string> metricsSnapshots() const;

    /** Log lines received, in order. */
    std::vector<std::pair<LogLevel, std::string>> logLines() const;

    /** Number of log lines at exactly @p level. */
    std::size_t countAtLevel(LogLevel level) const;

    /** Drop everything buffered so far. */
    void clear();

  private:
    mutable std::mutex mutex;
    std::vector<std::string> metrics;
    std::vector<std::pair<LogLevel, std::string>> logs;
};

/**
 * Route common/logging's filtered lines into @p sink (in place of
 * stderr; see setLogSink). Pass nullptr to restore plain stderr.
 * @p sink must outlive the routing.
 */
void attachLogSink(Sink *sink);

} // namespace vsync::obs

#endif // VSYNC_OBS_SINK_HH
