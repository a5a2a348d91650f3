/**
 * @file
 * Status and error reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal invariant was violated (a vlsisync bug); aborts.
 * fatal()  - the caller supplied an unusable configuration; exits(1).
 * warn()   - something is suspicious but the computation continues.
 * inform() - a status message with no negative connotation.
 * debugLog() - chatty diagnostics, off by default.
 *
 * Lines below the active level (setLogLevel / the VSYNC_LOG_LEVEL
 * environment variable: debug, info, warn, error or 0-3) are dropped.
 * An installed log sink (setLogSink) receives the surviving lines
 * instead of stderr, which is how tests assert on log output.
 * panic/fatal always print to stderr -- the process is about to die --
 * and are forwarded to the sink as well.
 */

#ifndef VSYNC_COMMON_LOGGING_HH
#define VSYNC_COMMON_LOGGING_HH

#include <cstdarg>
#include <functional>
#include <string>

namespace vsync
{

/** Severity of a log line, ordered least to most severe. */
enum class LogLevel
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
};

/**
 * Parse @p s as a level: a name (case-insensitive) or a digit 0-3.
 * Returns @p fallback when @p s is null or unrecognised.
 */
LogLevel parseLogLevel(const char *s, LogLevel fallback);

/** Lowest level that is emitted (default: Info, or VSYNC_LOG_LEVEL). */
LogLevel logLevel();

/** Set the emission threshold. Thread-safe. */
void setLogLevel(LogLevel level);

/** Re-read VSYNC_LOG_LEVEL (tests that setenv() call this). */
void initLogLevelFromEnv();

/**
 * Receives every line that passed the level filter, instead of stderr
 * (panic/fatal additionally always print to stderr). The string is the
 * full prefixed line without the trailing newline, e.g. "warn: x".
 */
using LogSinkFn = std::function<void(LogLevel, const std::string &)>;

/** Install @p sink ({} restores plain stderr). Thread-safe. */
void setLogSink(LogSinkFn sink);

/** Print "panic: <msg>" to stderr and abort. Use for internal bugs. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print "fatal: <msg>" to stderr and exit(1). Use for user errors. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print "warn: <msg>" to stderr and continue. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print "info: <msg>" to stderr and continue. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print "debug: <msg>" (suppressed unless the level is Debug). */
void debugLog(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Format a printf-style message into a std::string.
 *
 * @param fmt printf format string.
 * @return the formatted message.
 */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Abort with a message if @p cond is false. Active in all build types. */
#define VSYNC_ASSERT(cond, ...)                                           \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::vsync::panic("assertion '%s' failed at %s:%d: %s", #cond,   \
                           __FILE__, __LINE__,                            \
                           ::vsync::csprintf(__VA_ARGS__).c_str());       \
        }                                                                 \
    } while (0)

} // namespace vsync

#endif // VSYNC_COMMON_LOGGING_HH
