/**
 * @file
 * Logging and error-reporting helpers in the gem5 tradition.
 *
 * panic()  -- an internal simulator invariant was violated (a bug in the
 *             simulator itself); aborts so a core dump is available.
 * fatal()  -- the simulation cannot continue due to a user-level problem
 *             (bad configuration, invalid arguments); exits with status 1.
 * warn()   -- something is modelled approximately or suspiciously.
 * inform() -- normal, noteworthy status.
 *
 * Inside a ScopedFatalThrow region (thread-local), rest_fatal throws
 * util::FatalError instead of exiting, so supervisors like the sweep
 * runner can record one job's fatal as a per-job failure instead of
 * losing the whole process. panic() still aborts unconditionally: an
 * internal invariant violation leaves no state worth salvaging.
 */

#ifndef REST_UTIL_LOGGING_HH
#define REST_UTIL_LOGGING_HH

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace rest
{

namespace util
{

/** What rest_fatal raises inside a ScopedFatalThrow region. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII guard: while alive on this thread, rest_fatal throws FatalError
 * instead of calling std::exit. Nests; the fatal-throws behaviour lasts
 * until the outermost guard is destroyed.
 */
class ScopedFatalThrow
{
  public:
    ScopedFatalThrow();
    ~ScopedFatalThrow();
    ScopedFatalThrow(const ScopedFatalThrow &) = delete;
    ScopedFatalThrow &operator=(const ScopedFatalThrow &) = delete;
};

} // namespace util

/**
 * Global verbosity switch; when false, inform() output is suppressed.
 * Atomic: sweep-runner worker threads read it while a harness main
 * thread may still be setting it. warn()/inform() additionally
 * serialise their writes behind a process-wide mutex, each emitting
 * one pre-composed line, so parallel-sweep output never interleaves
 * mid-line.
 */
extern std::atomic<bool> verboseLogging;

namespace detail
{

/** Stream a pack of arguments into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort with a message: simulator-internal invariant violation. */
#define rest_panic(...) \
    ::rest::detail::panicImpl(__FILE__, __LINE__, \
                              ::rest::detail::concat(__VA_ARGS__))

/** Exit with a message: unrecoverable user-level error. */
#define rest_fatal(...) \
    ::rest::detail::fatalImpl(__FILE__, __LINE__, \
                              ::rest::detail::concat(__VA_ARGS__))

/** Emit a warning to stderr. */
#define rest_warn(...) \
    ::rest::detail::warnImpl(::rest::detail::concat(__VA_ARGS__))

/** Emit an informational message to stdout (verbose mode only). */
#define rest_inform(...) \
    ::rest::detail::informImpl(::rest::detail::concat(__VA_ARGS__))

/** Assert a simulator invariant; on failure, panic with the message. */
#define rest_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::rest::detail::panicImpl(__FILE__, __LINE__, \
                ::rest::detail::concat("assertion failed: " #cond " ", \
                                       __VA_ARGS__)); \
        } \
    } while (0)

} // namespace rest

#endif // REST_UTIL_LOGGING_HH
