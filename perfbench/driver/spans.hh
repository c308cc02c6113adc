/**
 * @file
 * In-memory span recorder for the benchmark's traced mode.
 *
 * Spans are recorded by the benchmark around its calls into the
 * simulator libraries (nothing inside src/ is instrumented). Each span
 * has a name "<layer>.<what>", a start and end on the steady clock and
 * the span that was open when it started. Spans stay in memory and are
 * written out once, as a Chrome trace, when the run ends. A layer's
 * self time is the time its spans cover minus the part their child
 * spans cover, so the self times of all layers under a top-level span
 * sum to its duration.
 *
 * Single-threaded: spans are opened and closed on the benchmark's main
 * thread only (worker-thread time shows as the span around the call
 * that waited for the workers).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
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

struct Span
{
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    double start = 0; ///< seconds since the recorder was created
    double end = 0;
};

class SpanRecorder
{
  public:
    SpanRecorder();

    /** While disabled, open() records nothing and returns -1. */
    void setEnabled(bool on) { enabled_ = on; }

    int open(std::string name);
    void close(int id);

    /**
     * Self time per layer (the name up to the first '.'), seconds, over
     * the top-level spans named 'root' and everything under them.
     */
    std::map<std::string, double>
    selfSecondsByLayer(const std::string &root) const;

    /** Write every span as a Chrome trace (Perfetto-loadable). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    double now() const;

    bool enabled_ = true;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> openStack_;
};

/** RAII span; a no-op while the recorder is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name)
        : rec_(rec), id_(rec.open(std::move(name)))
    {}
    ~ScopedSpan() { rec_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
