/**
 * @file
 * rest::trace — the end-to-end tracing and metrics layer.
 *
 * Three cooperating facilities, all zero-overhead when disabled:
 *
 *   1. Debug flags. A fixed registry of named flags (O3Pipe, Cache,
 *      TokenDetect, Alloc, Shadow, Sweep) gates DPRINTF-style message
 *      macros and typed event recording. Flags are parsed from
 *      "--debug-flags=Cache,TokenDetect" / the REST_DEBUG_FLAGS
 *      environment variable, optionally windowed to a tick range
 *      (--debug-start / --debug-end).
 *
 *   2. Event trace export. Components record typed TraceEvents
 *      (pipeline occupancy, cache fills/evictions/MSHR waits, token
 *      detections, allocator red-zone arming and quarantine churn)
 *      into a bounded in-memory ring; the ring serialises to Chrome
 *      trace-event JSON (chrome://tracing, Perfetto) with one track
 *      per component.
 *
 *   3. O3PipeView instruction traces. The O3 CPU records per-op
 *      fetch/decode/rename/dispatch/issue/complete/retire cycles,
 *      emitted in gem5's O3PipeView line format so standard pipeline
 *      viewers (Konata, gem5's util/o3-pipeview.py) work unchanged.
 *
 * Sink model: events flow to a TraceSink. A one-core machine
 * (sim::MultiCoreSystem, which sim::System wraps) installs its own
 * sink thread-locally for the duration of run() (ScopedSink), so
 * parallel sweep jobs each trace into private storage and never
 * interleave. When no per-machine sink is installed, an optional
 * process-global sink (installed by the bench harnesses from
 * --debug-flags / REST_DEBUG_FLAGS) receives events instead; the
 * global sink is internally locked. With neither installed — the
 * default — every trace macro reduces to one null-pointer test on a
 * thread-local, and simulation output is byte-identical to a build
 * without any instrumentation (enforced by tests/sim/
 * trace_system_test.cc).
 */

#ifndef REST_UTIL_TRACE_HH
#define REST_UTIL_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hh"

namespace rest::stats { class StatGroup; }

namespace rest::trace
{

// ---------------------------------------------------------------------
// Debug flags
// ---------------------------------------------------------------------

/** The debug-flag registry. Extend here; names follow gem5's style. */
enum class Flag : std::uint8_t
{
    O3Pipe,      ///< per-op pipeline stage timing (O3PipeView)
    Cache,       ///< cache fills, evictions, writebacks, MSHR activity
    TokenDetect, ///< fill-path token detections / violations / evicts
    Alloc,       ///< allocator red-zone arming, quarantine churn
    Shadow,      ///< ASan shadow poison/unpoison activity
    Sweep,       ///< sweep-runner job lifecycle
    NumFlags,
};

inline constexpr unsigned numFlags =
    static_cast<unsigned>(Flag::NumFlags);

/** Bitmask over Flags. */
using FlagMask = std::uint32_t;

constexpr FlagMask
flagBit(Flag f)
{
    return FlagMask(1) << static_cast<unsigned>(f);
}

inline constexpr FlagMask allFlags = (FlagMask(1) << numFlags) - 1;

/** Canonical name of a flag ("O3Pipe", ...). */
std::string_view flagName(Flag f);

/**
 * Parse a comma-separated flag list ("O3Pipe,Cache", or "All").
 * @return false (and *out untouched) if any name is unknown.
 */
bool parseFlags(std::string_view csv, FlagMask *out);

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/** Everything configurable about one sink. Default == tracing off. */
struct TraceConfig
{
    /** Enabled debug flags; 0 disables message + event recording. */
    FlagMask flags = 0;
    /** Tick window [debugStart, debugEnd] outside which flags are
     *  treated as off (gem5's --debug-start/--debug-end). */
    Tick debugStart = 0;
    Tick debugEnd = ~Tick(0);
    /** Chrome trace-event JSON output path ("" = not written). */
    std::string traceOutPath;
    /** O3PipeView output path ("" = not written). */
    std::string pipeViewPath;
    /** Snapshot registered StatGroups every N cycles (0 = off). */
    std::uint64_t statsEvery = 0;
    /** Event-ring capacity; the oldest events are dropped beyond it. */
    std::size_t ringCapacity = 1 << 16;
    /** Cap on retained O3PipeView records. */
    std::size_t pipeCapacity = 1 << 20;
    /** DPRINTF text destination; nullptr = std::cerr. */
    std::ostream *messageStream = nullptr;

    /** Does this configuration require a sink at all? */
    bool
    active() const
    {
        return flags != 0 || !traceOutPath.empty() ||
               !pipeViewPath.empty() || statsEvery != 0;
    }

    /** Flags from REST_DEBUG_FLAGS (empty/-unset → 0); unknown names
     *  warn and are ignored. */
    static TraceConfig fromEnv();
};

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/** Chrome trace-event phases we emit. */
enum class EventKind : std::uint8_t
{
    Complete, ///< "X": a span [start, start+duration)
    Instant,  ///< "i": a point event
    Counter,  ///< "C": a named counter sample
};

/**
 * One typed trace event. Names must be string literals (or otherwise
 * outlive the sink); events carry at most one integer argument.
 */
struct TraceEvent
{
    const char *name = "";
    Flag flag = Flag::NumFlags;
    EventKind kind = EventKind::Instant;
    std::uint32_t track = 0;
    Tick start = 0;
    Tick duration = 0;
    const char *argName = nullptr;
    std::uint64_t argValue = 0;
};

/** One op's pipeline stage cycles (gem5 O3PipeView schema). */
struct PipeRecord
{
    std::uint64_t seq = 0;
    Addr pc = 0;
    /** Mnemonic text; points at static storage (isa::mnemonic). */
    std::string_view disasm;
    Cycles fetch = 0;
    Cycles decode = 0;
    Cycles rename = 0;
    Cycles dispatch = 0;
    Cycles issue = 0;
    Cycles complete = 0;
    Cycles retire = 0;
    /** Store write-completion cycle (0 for non-stores). */
    Cycles storeComplete = 0;
};

// ---------------------------------------------------------------------
// The sink
// ---------------------------------------------------------------------

/**
 * Collects debug messages, trace events, O3PipeView records and
 * periodic stat snapshots for one System (or, for the process-global
 * sink, for a whole harness invocation). All mutating entry points are
 * internally locked: the per-System sink never sees contention (one
 * System runs on one thread), and the global sink is shared by sweep
 * workers by design.
 */
class TraceSink
{
  public:
    explicit TraceSink(TraceConfig cfg);

    const TraceConfig &config() const { return cfg_; }

    /** Is `f` enabled at tick `t` (mask + debug window)? */
    bool
    flagOn(Flag f, Tick t) const
    {
        return (cfg_.flags & flagBit(f)) != 0 &&
               t >= cfg_.debugStart && t <= cfg_.debugEnd;
    }

    /** Is `f` enabled at any tick? */
    bool flagEnabled(Flag f) const
    { return (cfg_.flags & flagBit(f)) != 0; }

    /**
     * Emit one DPRINTF line: "<tick>: <component>: <msg>\n", written
     * atomically so parallel producers never interleave mid-line.
     */
    void message(Tick t, std::string_view component,
                 std::string_view msg);

    /** Record an event (oldest events drop once the ring is full). */
    void record(const TraceEvent &ev);

    /** Convenience recorders (call only after checking flagOn()). */
    void complete(Flag f, std::uint32_t track, const char *name,
                  Tick start, Tick end, const char *arg_name = nullptr,
                  std::uint64_t arg_value = 0);
    void instant(Flag f, std::uint32_t track, const char *name,
                 Tick at, const char *arg_name = nullptr,
                 std::uint64_t arg_value = 0);
    void counter(Flag f, std::uint32_t track, const char *name, Tick at,
                 std::uint64_t value);

    /**
     * Stable per-component track id for Chrome trace "tid" fields;
     * first use registers the name (emitted as track metadata).
     */
    std::uint32_t trackFor(std::string_view component);

    /** Append one O3PipeView record (bounded by pipeCapacity). */
    void pipeView(const PipeRecord &rec);

    // --- periodic stats -------------------------------------------------
    /**
     * Register a StatGroup for periodic snapshots; enables
     * dumpEvery(statsEvery) on it. No-op when statsEvery == 0.
     */
    void registerStatGroup(stats::StatGroup *group);

    /** Advance snapshot time; call from the timing model's commit
     *  path. Cheap no-op when statsEvery == 0 or `now` is before the
     *  next boundary. */
    void statsTick(Cycles now);

    /** Force a final snapshot of any partial interval. */
    void flushStats(Cycles now);

    // --- inspection (tests, harness summaries) --------------------------
    std::vector<TraceEvent> events() const;
    std::uint64_t eventsRecorded() const;
    std::uint64_t eventsDropped() const;
    std::vector<PipeRecord> pipeRecords() const;
    std::vector<std::string> trackNames() const;

    // --- output ----------------------------------------------------------
    /**
     * Serialise the ring (plus counter samples derived from stat
     * snapshots) as Chrome trace-event JSON. Deterministic for a
     * deterministic event stream.
     */
    void writeChromeTrace(std::ostream &os) const;
    /** Write to `path`; warns and returns false if it cannot. */
    bool writeChromeTraceFile(const std::string &path) const;

    /** Serialise pipe records in gem5's O3PipeView line format. */
    void writePipeView(std::ostream &os) const;
    bool writePipeViewFile(const std::string &path) const;

  private:
    TraceConfig cfg_;

    mutable std::mutex mu_;
    std::vector<TraceEvent> ring_;
    std::size_t ringHead_ = 0; ///< next slot once the ring wrapped
    bool wrapped_ = false;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;

    std::vector<PipeRecord> pipe_;
    std::uint64_t pipeDropped_ = 0;

    std::map<std::string, std::uint32_t, std::less<>> tracks_;
    std::vector<std::string> trackNames_;

    std::vector<stats::StatGroup *> statGroups_;
    /** Atomic: statsTick()'s unlocked fast-path check may race with a
     *  boundary advance on another thread (shared global sink). */
    std::atomic<Cycles> nextSnapshotAt_{0};
};

// ---------------------------------------------------------------------
// Sink installation
// ---------------------------------------------------------------------

/**
 * The active sink for this thread: the thread-locally installed
 * per-System sink if any, else the process-global sink, else nullptr.
 * This is the single branch every trace macro pays when tracing is
 * off.
 */
TraceSink *sink();

/** Install/replace the process-global fallback sink (nullptr clears).
 *  Returns the previous one. Not owned. */
TraceSink *setGlobalSink(TraceSink *s);

/** RAII: install a sink thread-locally; restores the previous sink on
 *  destruction. MultiCoreSystem::run() wraps itself in one of these. */
class ScopedSink
{
  public:
    explicit ScopedSink(TraceSink *s);
    ~ScopedSink();

    ScopedSink(const ScopedSink &) = delete;
    ScopedSink &operator=(const ScopedSink &) = delete;

  private:
    TraceSink *prev_;
};

namespace detail
{
/** Stream a pack of arguments into a string (mirrors logging.hh). */
template <typename... Args>
std::string
traceConcat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}
} // namespace detail

/**
 * DPRINTF-style debug message, gated on a flag and the tick window.
 * Compiles to one thread-local load + null test when tracing is off;
 * the argument pack is only evaluated when the flag is live.
 *
 *   REST_DPRINTF(rest::trace::Flag::Cache, now, "l1d",
 *                "fill addr=", addr);
 */
#define REST_DPRINTF(flag, tick, component, ...) \
    do { \
        ::rest::trace::TraceSink *sink_ = ::rest::trace::sink(); \
        if (sink_ && sink_->flagOn((flag), (tick))) { \
            sink_->message((tick), (component), \
                ::rest::trace::detail::traceConcat(__VA_ARGS__)); \
        } \
    } while (0)

} // namespace rest::trace

#endif // REST_UTIL_TRACE_HH
