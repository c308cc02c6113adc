/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses.
 *
 * Environment knobs (validated; bad values warn and fall back):
 *   REST_BENCH_KILOINSTS  target dynamic kilo-instructions per run
 *                         (default 1000, clamped to [1, 1000000])
 *   REST_BENCH_SEEDS      generator seeds averaged per measurement
 *                         (default 2, clamped to [1, 64])
 *   REST_BENCH_JOBS       default sweep worker threads (default:
 *                         hardware concurrency, clamped to [1, 256])
 *
 * Command-line knobs (parseOptions(); every --flag also accepts the
 * --flag=value spelling):
 *   --jobs N / -j N       sweep worker threads for this invocation
 *   --json PATH           results file (default BENCH_<figure>.json)
 *   --no-json             disable the results file
 *   --detail              extra per-figure detail where supported
 *   --bench NAME          run only the named benchmark row
 *   --schemes CSV         registered protection schemes to measure
 *                         (tab3, multicore_scaling; default all)
 *   --cores N             largest core count of the multicore scaling
 *                         sweep (power-of-two counts up to N, plus N
 *                         itself when it is not a power of two)
 *   --fast-functional     retire ops functionally (no pipeline model);
 *                         detection is identical, cycles are nominal
 *   --sample-warmup N     detailed warmup ops per sampling period
 *                         (default 2000; needs --sample-interval)
 *   --sample-window N     detailed measured ops per period (default
 *                         10000)
 *   --sample-interval N   total ops per period; the rest fast-forwards
 *                         functionally (0 = sampling off, the default)
 *   --debug-flags CSV     enable debug flags (e.g. O3Pipe,Cache; the
 *                         REST_DEBUG_FLAGS env var is the fallback)
 *   --debug-start T       first tick debug flags are live
 *   --debug-end T         last tick debug flags are live
 *   --trace-out PATH      write Chrome trace-event JSON on exit
 *   --pipeview-out PATH   write O3PipeView instruction trace on exit
 *   --stats-every N       periodic stat snapshots every N cycles
 *                         (consumed by harnesses that run per-System
 *                         sinks, e.g. trace_demo)
 *   --dump-program B[:S]  print benchmark B's generated program after
 *                         instrumentation for scheme S (none, plain,
 *                         rest, or asan with optional +elide/+hoist/
 *                         +coalesce suffixes; "asan-elide" is the
 *                         legacy spelling of asan+elide; default
 *                         asan) and exit
 *
 * runMatrix() is the shared sweep driver: it expands a benchmark ×
 * column matrix (× seeds) into sim::SweepJobs, runs them on a
 * sim::SweepRunner, and aggregates exactly like the historical serial
 * loop (per-cell seed average in seed order), so tables are identical
 * at any --jobs value. Jobs that fail (DESIGN.md §10) become error
 * cells: tables print "error", the results JSON records {"error"},
 * and aggregate means are computed over the surviving rows — the
 * harness always exits 0 with every completed measurement intact.
 */

#ifndef REST_BENCH_BENCH_UTIL_HH
#define REST_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/verifier.hh"
#include "runtime/instrumentation.hh"
#include "runtime/protection_scheme.hh"
#include "sim/experiment.hh"
#include "sim/results.hh"
#include "sim/sweep.hh"
#include "util/trace.hh"
#include "workload/spec_profiles.hh"

namespace rest::bench
{

// ---------------------------------------------------------------------
// Environment knobs
// ---------------------------------------------------------------------

/**
 * Parse an unsigned environment variable defensively: empty,
 * non-numeric, negative or overflowing values warn on stderr and fall
 * back to `def`; out-of-range values warn and clamp to [lo, hi].
 */
inline std::uint64_t
parseEnvU64(const char *name, std::uint64_t def, std::uint64_t lo,
            std::uint64_t hi)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return def;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    // strtoull silently wraps negative input; reject any '-' outright.
    if (end == env || *end != '\0' || errno == ERANGE ||
        std::strchr(env, '-')) {
        rest_warn(name, "=\"", env, "\" is not a valid unsigned "
                  "integer; using default ", def);
        return def;
    }
    if (v < lo || v > hi) {
        std::uint64_t clamped = v < lo ? lo : hi;
        rest_warn(name, "=", v, " out of range [", lo, ", ", hi,
                  "]; clamping to ", clamped);
        return clamped;
    }
    return v;
}

inline std::uint64_t
kiloInsts()
{
    static const std::uint64_t v =
        parseEnvU64("REST_BENCH_KILOINSTS", 1000, 1, 1000000);
    return v;
}

inline unsigned
numSeeds()
{
    static const unsigned v = unsigned(
        parseEnvU64("REST_BENCH_SEEDS", 2, 1, 64));
    return v;
}

/** Default --jobs: REST_BENCH_JOBS, else hardware concurrency. */
inline unsigned
defaultJobs()
{
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    static const unsigned v = unsigned(
        parseEnvU64("REST_BENCH_JOBS", hw, 1, 256));
    return v;
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Options
{
    unsigned jobs = 1;
    bool json = true;
    std::string jsonPath;
    bool detail = false;
    /** --bench: run only this benchmark row ("" = all). */
    std::string benchFilter;
    /** --schemes: comma-separated registry ids to measure ("" = the
     *  harness default; tab3 runs every registered scheme). */
    std::string schemes;
    /** --cores: largest core count of the multicore scaling sweep
     *  (multicore_scaling runs power-of-two counts up to this, plus
     *  N itself when it is not a power of two). */
    unsigned cores = 8;
    /** Execution mode (--fast-functional / --sample-*); the default
     *  is all-detailed and leaves every sweep byte-identical. */
    sim::ExecutionConfig exec;

    // Tracing (all off by default; see util/trace.hh).
    std::string debugFlags;        ///< CSV of flag names ("" = none)
    Tick debugStart = 0;
    Tick debugEnd = ~Tick(0);
    std::string traceOut;          ///< Chrome trace JSON path
    std::string pipeViewOut;       ///< O3PipeView path
    std::uint64_t statsEvery = 0;  ///< stat snapshot period (cycles)

    /** Build a TraceConfig from the parsed trace knobs. */
    trace::TraceConfig
    traceConfig() const
    {
        trace::TraceConfig cfg;
        if (!debugFlags.empty())
            trace::parseFlags(debugFlags, &cfg.flags);
        cfg.debugStart = debugStart;
        cfg.debugEnd = debugEnd;
        cfg.traceOutPath = traceOut;
        cfg.pipeViewPath = pipeViewOut;
        cfg.statsEvery = statsEvery;
        return cfg;
    }
};

[[noreturn]] inline void
usage(const std::string &figure, int status)
{
    (status ? std::cerr : std::cout)
        << "usage: " << figure << " [--jobs N] [--json PATH] "
        << "[--no-json] [--detail]\n"
        << "         [--bench NAME] [--fast-functional]\n"
        << "         [--sample-warmup N] [--sample-window N] "
        << "[--sample-interval N]\n"
        << "         [--debug-flags CSV] [--debug-start T] "
        << "[--debug-end T]\n"
        << "         [--trace-out PATH] [--pipeview-out PATH] "
        << "[--stats-every N]\n"
        << "         [--dump-program BENCH[:SCHEME]]\n"
        << "  --jobs N / -j N    sweep worker threads (default "
        << defaultJobs() << ")\n"
        << "  --json PATH        write results JSON (default BENCH_"
        << figure << ".json)\n"
        << "  --no-json          disable the results file\n"
        << "  --detail           extra per-figure detail\n"
        << "  --bench NAME       run only the named benchmark row\n"
        << "  --fast-functional  functional retirement: identical "
        << "fault detection,\n"
        << "                     nominal cycles (CPI 1); for detection "
        << "work and CI,\n"
        << "                     never for quotable overheads\n"
        << "  --sample-warmup N  detailed warmup ops per sampling "
        << "period (default 2000)\n"
        << "  --sample-window N  detailed measured ops per period "
        << "(default 10000)\n"
        << "  --sample-interval N  total ops per period, remainder "
        << "fast-forwards\n"
        << "                     functionally (0 = sampling off)\n"
        << "  --debug-flags CSV  enable debug flags (O3Pipe, Cache, "
        << "TokenDetect,\n"
        << "                     Alloc, Shadow, Sweep, or All)\n"
        << "  --debug-start T    first tick the flags are live\n"
        << "  --debug-end T      last tick the flags are live\n"
        << "  --trace-out PATH   write Chrome trace-event JSON\n"
        << "  --pipeview-out P   write an O3PipeView instruction "
        << "trace\n"
        << "  --stats-every N    periodic stat snapshots every N "
        << "cycles\n"
        << "  --schemes CSV      registered protection schemes to "
        << "measure (tab3,\n"
        << "                     multicore_scaling; any of plain,asan,"
        << "rest,mte,pauth;\n"
        << "                     default all)\n"
        << "  --cores N          largest core count of the multicore "
        << "scaling sweep\n"
        << "                     (power-of-two counts up to N, plus N "
        << "itself;\n"
        << "                     default 8)\n"
        << "  --dump-program B[:S]  print benchmark B instrumented "
        << "for scheme S\n"
        << "                     (none, or a registered scheme: "
        << "plain, asan, rest,\n"
        << "                     mte, pauth, with optional +elide/"
        << "+hoist/+coalesce\n"
        << "                     suffixes on asan; default asan) "
        << "and exit\n";
    std::exit(status);
}

/**
 * The --dump-program action: generate benchmark `bench`, instrument it
 * for `scheme`, print the program listing plus the instrumentation
 * summary, and exit. "none" dumps the raw generator output with its
 * symbolic buf#N references unresolved.
 */
[[noreturn]] inline void
dumpProgram(const std::string &figure, const std::string &spec)
{
    std::string bench = spec, scheme = "asan";
    if (std::size_t colon = spec.find(':'); colon != std::string::npos) {
        bench = spec.substr(0, colon);
        scheme = spec.substr(colon + 1);
    }

    const std::vector<workload::BenchProfile> suite =
        workload::specSuite();
    const workload::BenchProfile *profile = nullptr;
    for (const auto &p : suite)
        if (p.name == bench)
            profile = &p;
    if (!profile) {
        std::cerr << figure << ": unknown benchmark \"" << bench
                  << "\"; available:";
        for (const auto &p : suite)
            std::cerr << " " << p.name;
        std::cerr << "\n";
        std::exit(1);
    }

    // "none" dumps the raw generator output; every other spec resolves
    // through the ProtectionScheme registry ("asan-elide" remains the
    // legacy spelling of "asan+elide").
    runtime::SchemeConfig cfg;
    const bool apply = scheme != "none";
    if (apply) {
        std::string err;
        if (!runtime::parseSchemeSpec(scheme, cfg, err)) {
            std::cerr << figure << ": " << err << " (want none, or a "
                      << "registered scheme:";
            for (const runtime::ProtectionScheme *ps :
                 runtime::allSchemes())
                std::cerr << " " << ps->id();
            std::cerr << "; asan takes optional +elide/+hoist/"
                      << "+coalesce suffixes, e.g. asan+elide+hoist)\n";
            std::exit(1);
        }
    }

    isa::Program prog = workload::generate(*profile);
    if (!apply) {
        std::cout << "; " << bench << ", generator output (symbolic "
                  << "stack buffers)\n\n" << prog.toString();
        std::exit(0);
    }
    runtime::InstrumentationSummary sum =
        runtime::applyScheme(prog, cfg);
    // Re-run the full post-instrumentation verifier on the optimized
    // output in every build type (applyScheme only re-verifies in
    // debug builds); CI asserts on this line for optimized schemes.
    analysis::VerifyOptions vo;
    vo.expectAsanChecks = cfg.asanAccessChecks;
    vo.expectArming = cfg.restStackArming;
    auto diags = analysis::verify(prog, vo);
    if (!diags.empty()) {
        std::cerr << figure << ": instrumented " << bench
                  << " failed verification under " << cfg.name()
                  << ":\n" << analysis::formatDiagnostics(diags)
                  << "\n";
        std::exit(1);
    }
    std::cout << "; " << bench << ", scheme " << cfg.name() << "\n"
              << "; verifier: ok (0 diagnostics)\n"
              << "; checks inserted " << sum.accessChecksInserted
              << ", elided " << sum.accessChecksElided
              << ", hoisted " << sum.accessChecksHoisted
              << ", coalesced " << sum.accessChecksCoalesced
              << ", arms " << sum.armsInserted
              << ", disarms " << sum.disarmsInserted << "\n"
              << "; poison stores " << sum.stackPoisonStores
              << ", pad-zero stores " << sum.padZeroStores
              << ", frame bytes " << sum.frameBytesTotal << "\n\n"
              << prog.toString();
    std::exit(0);
}

/**
 * Parse the shared harness flags; unknown flags are fatal. Both
 * "--flag value" and "--flag=value" are accepted. When any trace knob
 * is live (or REST_DEBUG_FLAGS is set) a process-global trace sink is
 * installed; see installGlobalTrace().
 */
inline Options
parseOptions(int argc, char **argv, const std::string &figure)
{
    Options opt;
    opt.jobs = defaultJobs();
    opt.jsonPath = "BENCH_" + figure + ".json";

    // Expand "--flag=value" into "--flag" "value" so one loop handles
    // both spellings.
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::size_t eq;
        if (a.size() > 2 && a.compare(0, 2, "--") == 0 &&
            (eq = a.find('=')) != std::string::npos) {
            args.push_back(a.substr(0, eq));
            args.push_back(a.substr(eq + 1));
        } else {
            args.push_back(std::move(a));
        }
    }

    auto strArg = [&](std::size_t &i,
                      const std::string &flag) -> std::string {
        if (i + 1 >= args.size()) {
            std::cerr << figure << ": " << flag
                      << " requires a value\n";
            usage(figure, 1);
        }
        return args[++i];
    };
    auto u64Arg = [&](std::size_t &i, const std::string &flag,
                      std::uint64_t lo,
                      std::uint64_t hi) -> std::uint64_t {
        std::string s = strArg(i, flag);
        errno = 0;
        char *end = nullptr;
        unsigned long long v = std::strtoull(s.c_str(), &end, 10);
        if (end == s.c_str() || *end != '\0' || errno == ERANGE ||
            s.find('-') != std::string::npos || v < lo || v > hi) {
            std::cerr << figure << ": bad " << flag << " value \"" << s
                      << "\" (want " << lo << ".." << hi << ")\n";
            usage(figure, 1);
        }
        return v;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--jobs" || a == "-j") {
            opt.jobs = unsigned(u64Arg(i, a, 1, 256));
        } else if (a == "--json") {
            opt.jsonPath = strArg(i, a);
            opt.json = true;
        } else if (a == "--no-json") {
            opt.json = false;
        } else if (a == "--detail") {
            opt.detail = true;
        } else if (a == "--bench") {
            opt.benchFilter = strArg(i, a);
        } else if (a == "--schemes") {
            opt.schemes = strArg(i, a);
        } else if (a == "--cores") {
            opt.cores = unsigned(u64Arg(i, a, 1, 64));
        } else if (a == "--fast-functional") {
            opt.exec.fastFunctional = true;
        } else if (a == "--sample-warmup") {
            opt.exec.sampling.warmupOps =
                u64Arg(i, a, 0, ~std::uint64_t(0));
        } else if (a == "--sample-window") {
            opt.exec.sampling.windowOps =
                u64Arg(i, a, 1, ~std::uint64_t(0));
        } else if (a == "--sample-interval") {
            opt.exec.sampling.intervalOps =
                u64Arg(i, a, 0, ~std::uint64_t(0));
        } else if (a == "--debug-flags") {
            opt.debugFlags = strArg(i, a);
            trace::FlagMask mask = 0;
            if (!trace::parseFlags(opt.debugFlags, &mask)) {
                std::cerr << figure << ": unknown debug flag in \""
                          << opt.debugFlags << "\"\n";
                usage(figure, 1);
            }
        } else if (a == "--debug-start") {
            opt.debugStart = u64Arg(i, a, 0, ~std::uint64_t(0));
        } else if (a == "--debug-end") {
            opt.debugEnd = u64Arg(i, a, 0, ~std::uint64_t(0));
        } else if (a == "--trace-out") {
            opt.traceOut = strArg(i, a);
        } else if (a == "--pipeview-out") {
            opt.pipeViewOut = strArg(i, a);
        } else if (a == "--stats-every") {
            opt.statsEvery = u64Arg(i, a, 1, ~std::uint64_t(0));
        } else if (a == "--dump-program") {
            dumpProgram(figure, strArg(i, a));
        } else if (a == "--help" || a == "-h") {
            usage(figure, 0);
        } else {
            std::cerr << figure << ": unknown argument \"" << a
                      << "\"\n";
            usage(figure, 1);
        }
    }
    if (opt.exec.fastFunctional && opt.exec.sampling.active()) {
        std::cerr << figure << ": --fast-functional and "
                  << "--sample-interval are mutually exclusive\n";
        usage(figure, 1);
    }
    if (!opt.exec.sampling.valid()) {
        std::cerr << figure << ": bad sampling config: need "
                  << "--sample-warmup + --sample-window <= "
                  << "--sample-interval\n";
        usage(figure, 1);
    }
    return opt;
}

// ---------------------------------------------------------------------
// The harness-level (process-global) trace sink
// ---------------------------------------------------------------------

/** Owns the global sink so an atexit hook can flush its outputs. */
inline std::unique_ptr<trace::TraceSink> &
globalTraceStorage()
{
    static std::unique_ptr<trace::TraceSink> storage;
    return storage;
}

/** atexit hook: write the global sink's configured output files. */
inline void
writeGlobalTraceFiles()
{
    auto &storage = globalTraceStorage();
    if (!storage)
        return;
    const trace::TraceConfig &cfg = storage->config();
    if (!cfg.traceOutPath.empty())
        storage->writeChromeTraceFile(cfg.traceOutPath);
    if (!cfg.pipeViewPath.empty())
        storage->writePipeViewFile(cfg.pipeViewPath);
}

/**
 * Install the process-global trace sink from the parsed options (with
 * REST_DEBUG_FLAGS as the flag fallback). All sweep workers share it;
 * its outputs are written at exit. Returns nullptr — and installs
 * nothing — when no trace knob is live, keeping the default run
 * byte-identical to an uninstrumented build.
 */
inline trace::TraceSink *
installGlobalTrace(const Options &opt)
{
    trace::TraceConfig cfg = opt.traceConfig();
    if (cfg.flags == 0)
        cfg.flags = trace::TraceConfig::fromEnv().flags;
    if (!cfg.active())
        return nullptr;
    auto &storage = globalTraceStorage();
    storage = std::make_unique<trace::TraceSink>(cfg);
    trace::setGlobalSink(storage.get());
    std::atexit(writeGlobalTraceFiles);
    return storage.get();
}

// ---------------------------------------------------------------------
// The shared sweep driver
// ---------------------------------------------------------------------

/** One column of a benchmark × configuration matrix. */
struct MatrixColumn
{
    std::string name;
    sim::SystemConfig cfg;
};

/** Aggregated matrix: table-shaped views plus the full JSON record. */
struct MatrixResult
{
    std::vector<std::string> rowNames;
    std::vector<std::string> colNames;
    /** Plain baseline per row (empty when run without baseline). */
    std::vector<Cycles> baseline;
    /** False where the baseline cell failed (indexed like baseline). */
    std::vector<bool> baselineOk;
    /** Seed-averaged cycles, indexed [column][row]. */
    std::vector<std::vector<Cycles>> cells;
    /** False where the cell failed, indexed [column][row]. Failed
     *  cells carry cycles == 0; consult ok before using them. */
    std::vector<std::vector<bool>> cellOk;

    /** Did every cell (and baseline) succeed? */
    bool
    allOk() const
    {
        for (bool ok : baselineOk)
            if (!ok)
                return false;
        for (const auto &col : cellOk)
            for (bool ok : col)
                if (!ok)
                    return false;
        return true;
    }

    /** Overhead % for table printing; NaN when either side failed
     *  (printRow renders non-finite values as "error"). */
    double
    overheadAt(std::size_t col, std::size_t row) const
    {
        if (!baselineOk[row] || !cellOk[col][row])
            return std::numeric_limits<double>::quiet_NaN();
        return sim::overheadPct(baseline[row], cells[col][row]);
    }

    /** Full per-cell record for the results file. */
    sim::SweepResults sweep;
};

/**
 * Run a benchmark × column matrix, seeds expanded per cell, on a
 * SweepRunner with opt.jobs threads. When `with_baseline` is set a
 * Plain column is run first and the sweep's wtd-ari/geo mean overheads
 * are computed against it (over the rows whose cells all succeeded).
 * A non-detailed opt.exec (--fast-functional, --sample-*) replaces
 * every column's exec mode, the baseline's included; the detailed
 * default leaves each column's own cfg.exec alone.
 */
inline MatrixResult
runMatrix(const std::string &sweep_name,
          const std::vector<workload::BenchProfile> &rows,
          const std::vector<MatrixColumn> &cols, const Options &opt,
          bool with_baseline = true)
{
    const unsigned seeds = numSeeds();
    const std::uint64_t ki = kiloInsts();

    // --bench narrows the matrix to one row (CI's fast-functional
    // smoke runs one benchmark instead of the whole suite).
    std::vector<workload::BenchProfile> rows_run;
    if (opt.benchFilter.empty()) {
        rows_run = rows;
    } else {
        for (const auto &r : rows)
            if (r.name == opt.benchFilter)
                rows_run.push_back(r);
        if (rows_run.empty()) {
            std::cerr << "sweep " << sweep_name << ": --bench \""
                      << opt.benchFilter
                      << "\" matches no row; available:";
            for (const auto &r : rows)
                std::cerr << " " << r.name;
            std::cerr << "\n";
            std::exit(1);
        }
    }

    // All columns as run, baseline first.
    std::vector<MatrixColumn> all_cols;
    if (with_baseline)
        all_cols.push_back(
            {"Plain", sim::makeSystemConfig(sim::ExpConfig::Plain)});
    all_cols.insert(all_cols.end(), cols.begin(), cols.end());
    if (!opt.exec.detailed())
        for (MatrixColumn &col : all_cols)
            col.cfg.exec = opt.exec;

    std::vector<sim::SweepJob> jobs_list;
    jobs_list.reserve(rows_run.size() * all_cols.size() * seeds);
    for (const auto &row : rows_run) {
        for (const auto &col : all_cols) {
            for (unsigned s = 0; s < seeds; ++s) {
                workload::BenchProfile p = row;
                p.targetKiloInsts = ki;
                p.seed = row.seed + 0x1000 * s;
                jobs_list.push_back({std::move(p), col.cfg, col.name});
            }
        }
    }

    const std::vector<sim::JobResult> results =
        sim::SweepRunner(opt.jobs).run(jobs_list);

    MatrixResult out;
    out.sweep.name = sweep_name;
    for (const auto &col : all_cols) {
        out.sweep.columns.push_back(col.name);
        if (!(with_baseline && &col == &all_cols.front()))
            out.colNames.push_back(col.name);
    }
    out.cells.resize(out.colNames.size());
    out.cellOk.resize(out.colNames.size());

    std::size_t idx = 0;
    for (const auto &row : rows_run) {
        out.rowNames.push_back(row.name);
        out.sweep.rows.push_back(row.name);
        for (std::size_t c = 0; c < all_cols.size(); ++c) {
            sim::SweepCell cell;
            cell.bench = row.name;
            cell.column = all_cols[c].name;
            // Seed-average in seed order, so tables match bit-for-bit
            // at any --jobs value.
            double total_cycles = 0, total_ops = 0;
            for (unsigned s = 0; s < seeds; ++s) {
                const sim::JobResult &jr = results[idx++];
                if (!jr.ok) {
                    // The cell fails as a whole; keep the first
                    // error.
                    if (cell.ok) {
                        cell.ok = false;
                        cell.error = jr.error;
                    }
                    continue;
                }
                const sim::Measurement &m = jr.measurement;
                cell.execMode = m.execMode;
                cell.samplingErrorPct = std::max(
                    cell.samplingErrorPct, m.samplingErrorPct);
                total_cycles += double(m.cycles);
                total_ops += double(m.ops);
                cell.seedCycles.push_back(m.cycles);
                for (const auto &[name, v] : m.scalars)
                    cell.scalars[name] += v;
                // Per-interval deltas of the first seed's run; empty
                // (and thus absent from the JSON) unless the column's
                // config enabled periodic snapshots.
                if (s == 0)
                    cell.statSeries = m.statSeries;
            }
            if (cell.ok) {
                cell.cycles = Cycles(total_cycles / seeds);
                cell.ops = std::uint64_t(total_ops / seeds);
            } else {
                // Zero the measurement fields so nothing downstream
                // mistakes a failed cell for an implausibly fast run.
                cell.cycles = 0;
                cell.ops = 0;
                cell.seedCycles.clear();
                cell.scalars.clear();
                cell.statSeries.clear();
            }

            bool is_baseline = with_baseline && c == 0;
            if (is_baseline) {
                out.baseline.push_back(cell.cycles);
                out.baselineOk.push_back(cell.ok);
                if (cell.ok)
                    out.sweep.baselineCycles[row.name] = cell.cycles;
            } else {
                std::size_t ci = with_baseline ? c - 1 : c;
                out.cells[ci].push_back(cell.cycles);
                out.cellOk[ci].push_back(cell.ok);
            }
            out.sweep.cells.push_back(std::move(cell));
        }
    }

    if (with_baseline) {
        for (std::size_t c = 0; c < out.colNames.size(); ++c) {
            // Means over the rows whose baseline and cell both
            // succeeded; NaN — "error" in tables, null in JSON —
            // when no row survived.
            std::vector<Cycles> base, cyc;
            for (std::size_t r = 0; r < out.rowNames.size(); ++r) {
                if (!out.baselineOk[r] || !out.cellOk[c][r])
                    continue;
                base.push_back(out.baseline[r]);
                cyc.push_back(out.cells[c][r]);
            }
            const double nan = std::numeric_limits<double>::quiet_NaN();
            out.sweep.wtdAriMeanPct[out.colNames[c]] =
                base.empty() ? nan
                             : sim::wtdAriMeanOverheadPct(base, cyc);
            out.sweep.geoMeanPct[out.colNames[c]] =
                base.empty() ? nan : sim::geoMeanOverheadPct(base, cyc);
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/** Print one row of a percentage table. Non-finite entries are the
 *  error-cell sentinel and render as "error". */
inline void
printRow(const std::string &name, const std::vector<double> &values)
{
    std::cout << std::left << std::setw(12) << name << std::right;
    for (double v : values) {
        if (std::isfinite(v))
            std::cout << std::setw(16) << std::fixed
                      << std::setprecision(1) << v;
        else
            std::cout << std::setw(16) << "error";
    }
    std::cout << "\n";
}

inline void
printHeader(const std::vector<std::string> &columns)
{
    std::cout << std::left << std::setw(12) << "bench" << std::right;
    for (const auto &c : columns)
        std::cout << std::setw(16) << c;
    std::cout << "\n" << std::string(12 + 16 * columns.size(), '-')
              << "\n";
}

/** The fig7/fig8 table shape: per-row overhead %, then the means. */
inline void
printOverheadTable(const MatrixResult &mat)
{
    printHeader(mat.colNames);
    for (std::size_t r = 0; r < mat.rowNames.size(); ++r) {
        std::vector<double> row;
        for (std::size_t c = 0; c < mat.colNames.size(); ++c)
            row.push_back(mat.overheadAt(c, r));
        printRow(mat.rowNames[r], row);
    }
    std::cout << std::string(12 + 16 * mat.colNames.size(), '-')
              << "\n";
    std::vector<double> wtd, geo;
    for (const auto &name : mat.colNames) {
        wtd.push_back(mat.sweep.wtdAriMeanPct.at(name));
        geo.push_back(mat.sweep.geoMeanPct.at(name));
    }
    printRow("WtdAriMean", wtd);
    printRow("GeoMean", geo);
}

/** Assemble and write BENCH_<figure>.json if enabled. */
inline void
writeResults(const Options &opt, const std::string &figure,
             std::vector<sim::SweepResults> sweeps)
{
    if (!opt.json)
        return;
    sim::ResultsFile f;
    f.figure = figure;
    f.kiloInsts = kiloInsts();
    f.seedsPerCell = numSeeds();
    f.jobs = opt.jobs;
    f.sweeps = std::move(sweeps);
    if (sim::writeJsonFile(f, opt.jsonPath))
        std::cout << "\nresults: " << opt.jsonPath << "\n";
}

} // namespace rest::bench

#endif // REST_BENCH_BENCH_UTIL_HH
