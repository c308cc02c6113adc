#include "util/logging.hh"

#include <mutex>

namespace rest
{

std::atomic<bool> verboseLogging{false};

namespace detail
{

namespace
{

/** Serialises warn()/inform() (and last-words panic/fatal) output so
 *  concurrent sweep workers never interleave mid-line. */
std::mutex &
logMutex()
{
    static std::mutex mu;
    return mu;
}

/** Compose the whole line first, then write it in one call. */
void
writeLine(std::ostream &os, const char *prefix, const std::string &msg,
          const char *suffix = "")
{
    std::string line;
    line.reserve(msg.size() + 32);
    line += prefix;
    line += msg;
    line += suffix;
    line += '\n';
    std::lock_guard<std::mutex> lock(logMutex());
    os << line << std::flush;
}

} // namespace

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    writeLine(std::cerr, "panic: ",
              msg + " @ " + file + ":" + std::to_string(line));
    std::abort();
}

namespace
{

/** Depth of live ScopedFatalThrow guards on this thread. */
thread_local int fatal_throw_depth = 0;

} // namespace

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::string full = msg + " @ " + file + ":" + std::to_string(line);
    if (fatal_throw_depth > 0)
        throw util::FatalError(full);
    writeLine(std::cerr, "fatal: ", full);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    writeLine(std::cerr, "warn: ", msg);
}

void
informImpl(const std::string &msg)
{
    if (verboseLogging.load(std::memory_order_relaxed))
        writeLine(std::cout, "info: ", msg);
}

} // namespace detail

namespace util
{

ScopedFatalThrow::ScopedFatalThrow() { ++detail::fatal_throw_depth; }
ScopedFatalThrow::~ScopedFatalThrow() { --detail::fatal_throw_depth; }

} // namespace util

} // namespace rest
