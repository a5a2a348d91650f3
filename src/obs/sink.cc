#include "obs/sink.hh"

namespace vsync::obs
{

void
CaptureSink::onMetricsJson(const std::string &json)
{
    std::lock_guard<std::mutex> lock(mutex);
    metrics.push_back(json);
}

void
CaptureSink::onLogLine(LogLevel level, const std::string &line)
{
    std::lock_guard<std::mutex> lock(mutex);
    logs.emplace_back(level, line);
}

std::vector<std::string>
CaptureSink::metricsSnapshots() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return metrics;
}

std::vector<std::pair<LogLevel, std::string>>
CaptureSink::logLines() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return logs;
}

std::size_t
CaptureSink::countAtLevel(LogLevel level) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::size_t n = 0;
    for (const auto &[lv, line] : logs)
        n += lv == level;
    return n;
}

void
CaptureSink::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    metrics.clear();
    logs.clear();
}

void
attachLogSink(Sink *sink)
{
    if (!sink) {
        setLogSink({});
        return;
    }
    setLogSink([sink](LogLevel level, const std::string &line) {
        sink->onLogLine(level, line);
    });
}

} // namespace vsync::obs
