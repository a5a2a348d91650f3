#include "common/logging.hh"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace vsync
{

namespace
{

/** Render a printf format/arg pair into a std::string. */
std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<std::size_t>(n));
}

std::atomic<int> activeLevel{-1}; // -1: not yet read from env

std::mutex sinkMutex;
LogSinkFn activeSink; // guarded by sinkMutex

int
levelFromEnv()
{
    return static_cast<int>(
        parseLogLevel(std::getenv("VSYNC_LOG_LEVEL"), LogLevel::Info));
}

/**
 * The filter + routing shared by every non-fatal line. @p always_stderr
 * forces stderr output regardless of the sink (panic/fatal).
 */
void
emitLine(LogLevel level, const char *prefix, const std::string &msg,
         bool always_stderr)
{
    if (static_cast<int>(level) < static_cast<int>(logLevel()))
        return;
    const std::string line = std::string(prefix) + ": " + msg;
    bool sunk = false;
    {
        std::lock_guard<std::mutex> lock(sinkMutex);
        if (activeSink) {
            activeSink(level, line);
            sunk = true;
        }
    }
    if (!sunk || always_stderr)
        std::fprintf(stderr, "%s\n", line.c_str());
}

} // namespace

LogLevel
parseLogLevel(const char *s, LogLevel fallback)
{
    if (!s || !*s)
        return fallback;
    std::string lower;
    for (const char *p = s; *p; ++p)
        lower.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
    if (lower == "debug" || lower == "0")
        return LogLevel::Debug;
    if (lower == "info" || lower == "1")
        return LogLevel::Info;
    if (lower == "warn" || lower == "warning" || lower == "2")
        return LogLevel::Warn;
    if (lower == "error" || lower == "3")
        return LogLevel::Error;
    return fallback;
}

LogLevel
logLevel()
{
    int lv = activeLevel.load(std::memory_order_relaxed);
    if (lv < 0) {
        lv = levelFromEnv();
        // Racing first calls compute the same env-derived value.
        activeLevel.store(lv, std::memory_order_relaxed);
    }
    return static_cast<LogLevel>(lv);
}

void
setLogLevel(LogLevel level)
{
    activeLevel.store(static_cast<int>(level), std::memory_order_relaxed);
}

void
initLogLevelFromEnv()
{
    activeLevel.store(levelFromEnv(), std::memory_order_relaxed);
}

void
setLogSink(LogSinkFn sink)
{
    std::lock_guard<std::mutex> lock(sinkMutex);
    activeSink = std::move(sink);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emitLine(LogLevel::Error, "panic", msg, /*always_stderr=*/true);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emitLine(LogLevel::Error, "fatal", msg, /*always_stderr=*/true);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emitLine(LogLevel::Warn, "warn", msg, /*always_stderr=*/false);
}

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emitLine(LogLevel::Info, "info", msg, /*always_stderr=*/false);
}

void
debugLog(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    emitLine(LogLevel::Debug, "debug", msg, /*always_stderr=*/false);
}

std::string
csprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    return msg;
}

} // namespace vsync
