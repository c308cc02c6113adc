/**
 * @file
 * restbench: the repository's benchmark driver (perfbench/README.md).
 *
 *   restbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--tiny] [--spans-out PATH]
 *
 * One untimed warm-up pass on a single worker, then passes over the
 * workload until S seconds have elapsed (at least three). With --trace 0 it reports the
 * end-to-end metrics: host times over the timed passes (hostTimes()),
 * and the simulated overheads, which every pass must reproduce exactly.
 * With --trace 1 it alternates untraced and traced passes for S
 * seconds, then runs the layer probe, and reports the per-layer
 * metrics, each layer's self time and the tracing overhead.
 *
 * Output: human-readable lines, a digest of every simulated statistic
 * in job order, and as the last line one JSON object with the result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "layer_probe.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string spansOut;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "restbench: " << error << "\n"
              << "usage: restbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--spans-out PATH]\n"
              << "workloads:";
    for (const std::string &n : workloadNames())
        std::cerr << " " << n;
    std::cerr << "\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != text.size() || text[0] == '-')
        usage(flag + " expects a non-negative integer, got '" + text + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            opt.tiny = true;
            continue;
        }
        if (i + 1 == argc)
            usage("missing value after " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = parseUnsigned(flag, value);
        else if (flag == "--seconds")
            opt.seconds = double(parseUnsigned(flag, value));
        else if (flag == "--trace")
            opt.trace = parseUnsigned(flag, value) != 0;
        else if (flag == "--spans-out")
            opt.spansOut = value;
        else
            usage("unknown flag " + flag);
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Host times of one pass; per-job vectors are in job order. */
struct PassTimes
{
    double wall = 0;
    double jobs = 0;             ///< the jobs alone
    std::vector<double> jobHost; ///< whole job
    std::vector<double> jobRun;  ///< inside run()
};

PassTimes
passTimes(const PassResult &pass)
{
    PassTimes t;
    t.wall = pass.wallSeconds;
    t.jobs = pass.jobsSeconds;
    for (const JobOutcome &j : pass.jobs) {
        t.jobHost.push_back(j.hostSeconds);
        t.jobRun.push_back(j.runSeconds);
    }
    return t;
}

/** Host-time metrics over a set of passes. */
struct HostTimes
{
    double wall = 0;
    double setup = 0;
    double kips = 0;
    double usPerRequest = 0;
    double busyFrac = 0;
    double waitS = 0;
};

/**
 * The fastest pass's wall time and, per job, the fastest run() time
 * over the passes, summed. The host is shared and load from outside
 * only ever adds time, so the fastest time is the closest to the
 * simulator's own cost (perfbench/README.md gives the spreads that
 * decided this). Set-up time is each job's median over the passes,
 * summed. 'work' is any pass of the same jobs (ops and requests are
 * fixed).
 */
HostTimes
hostTimes(const std::vector<PassTimes> &passes, const PassResult &work,
          unsigned workers)
{
    // Busy share and idle worker time within each pass, so that a
    // pass's job times are set against that same pass's job phase.
    std::vector<double> walls, busy, wait;
    for (const PassTimes &p : passes) {
        walls.push_back(p.wall);
        double job_host = 0;
        for (double h : p.jobHost)
            job_host += h;
        busy.push_back(job_host / (p.jobs * workers));
        wait.push_back(p.jobs * workers - job_host);
    }
    double setup = 0, run = 0;
    for (std::size_t j = 0; j < work.jobs.size(); ++j) {
        std::vector<double> s, r;
        for (const PassTimes &p : passes) {
            s.push_back(p.jobHost[j] - p.jobRun[j]);
            r.push_back(p.jobRun[j]);
        }
        setup += median(s);
        run += *std::min_element(r.begin(), r.end());
    }
    std::uint64_t ops = 0, requests = 0;
    for (const JobOutcome &j : work.jobs) {
        ops += j.ops;
        requests += j.requests;
    }
    HostTimes t;
    t.wall = *std::min_element(walls.begin(), walls.end());
    t.setup = setup;
    t.kips = run > 0 ? double(ops) / run / 1000.0 : 0;
    t.usPerRequest = requests ? run / double(requests) * 1e6 : 0;
    t.busyFrac = median(busy);
    t.waitS = median(wait);
    return t;
}

/** The simulated end-to-end metrics. */
struct SimOverheads
{
    double secure, debug, asanopt;
};

SimOverheads
simOverheads(const PassResult &pass)
{
    return {simOverheadPct(pass, "secure"), simOverheadPct(pass, "debug"),
            simOverheadPct(pass, "asanopt")};
}

/** Every simulated statistic of a pass, one line per job/verdict. */
std::string
digestText(const PassResult &pass)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
        const JobOutcome &j = pass.jobs[i];
        os << "job " << i << " " << j.program << "/" << j.config
           << " ok=" << j.ok << " cycles=" << j.cycles << " ops=" << j.ops;
        for (const auto &[name, v] : j.scalars)
            os << " " << name << "=" << v;
        os << "\n";
    }
    for (const VerdictCheck &v : pass.verdicts)
        os << "verdict " << v.name << " ok=" << v.ok << "\n";
    const SimOverheads o = simOverheads(pass);
    os << std::setprecision(17)
       << "sim sim_overhead_rest_secure_pct=" << o.secure
       << " sim_overhead_rest_debug_pct=" << o.debug
       << " sim_overhead_asanopt_pct=" << o.asanopt << "\n";
    return os.str();
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Paper Figure 7 weighted means (EXPERIMENTS.md). */
constexpr double paperSecurePct = 2.0;
constexpr double paperDebugPct = 25.0;

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

/** The simulated per-layer counts, from one pass. */
std::vector<Metric>
layerCounts(const PassResult &pass, bool multicore)
{
    std::map<std::string, double> s;
    double cycles = 0, ops = 0, requests = 0;
    for (const JobOutcome &j : pass.jobs) {
        for (const auto &[name, v] : j.scalars)
            s[name] += double(v);
        cycles += double(j.cycles);
        ops += double(j.ops);
        requests += double(j.requests);
    }
    auto missRate = [&s](const std::string &level) {
        const double misses = s[level + ".misses"];
        return ratio(misses, s[level + ".hits"] + misses);
    };
    const SimOverheads o = simOverheads(pass);
    return {
        {"analysis.checks_elided", s["instr.access_checks_elided"], "count"},
        {"analysis.checks_hoisted", s["instr.access_checks_hoisted"],
         "count"},
        {"analysis.checks_coalesced", s["instr.access_checks_coalesced"],
         "count"},
        {"analysis.check_ops_executed", s["instr.access_check_ops_executed"],
         "count"},
        {"cpu.ipc", ratio(ops, cycles), "op/cycle"},
        {"cpu.rob_store_blocked_cycles",
         s["o3cpu.rob_store_blocked_cycles"], "cycles"},
        {"cpu.iq_full_stall_cycles", s["o3cpu.iq_full_stall_cycles"],
         "cycles"},
        {"cpu.mispredict_rate", ratio(s["o3cpu.branch_mispredicts"], ops),
         "1/op"},
        {"mem.l1d_miss_rate", missRate("l1d"), "frac"},
        {"mem.l2_miss_rate", missRate("l2"), "frac"},
        {"mem.token_fills", s["l1d.token_fills"], "count"},
        {"mem.token_evictions", s["l1d.token_evictions"], "count"},
        {"mem.coherence_transfers", s["coherence_bus.transfers"], "count"},
        {"mem.token_coherence_flushes", s["l1d.token_coherence_flushes"],
         "count"},
        {"core.arms", s["core.arms"], "count"},
        {"core.disarms", s["core.disarms"], "count"},
        {"runtime.malloc_calls", s["runtime.malloc_calls"], "count"},
        {"runtime.free_calls", s["runtime.free_calls"], "count"},
        {"runtime.expanded_ops_frac",
         ratio(s["ops.allocator"] + s["ops.interceptor"], ops), "frac"},
        {"sim.mc_ops_per_request", multicore ? ratio(ops, requests) : 0,
         "op"},
        {"sim.mc_cycles_per_request",
         multicore ? ratio(cycles, requests) : 0, "cycles"},
        {"model.secure_abs_gap_pp", std::fabs(o.secure - paperSecurePct),
         "pp"},
        {"model.debug_abs_gap_pp", std::fabs(o.debug - paperDebugPct), "pp"},
    };
}

const char *const layerNames[] = {"bench", "workload", "analysis",
                                  "runtime", "sim", "cpu", "mem", "core"};

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    // A fixed worker count (capped at the host's threads) keeps passes
    // comparable across hosts with spare cores.
    const unsigned workers =
        std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
    const Sizing sizing = opt.tiny ? Sizing::tiny() : Sizing{};
    const std::optional<Workload> w =
        makeWorkload(opt.workload, opt.seed, workers, sizing);
    if (!w)
        usage("unknown workload '" + opt.workload + "'");

    std::cout << "restbench: workload " << w->name << ", seed " << opt.seed
              << ", " << opt.seconds << " s, trace " << opt.trace << ", "
              << w->workers << " worker(s)" << (opt.tiny ? ", tiny" : "")
              << "\nbuild: " << PERFBENCH_COMPILER << ", "
              << PERFBENCH_BUILD_TYPE << "\n";

    SpanRecorder spans;
    spans.setEnabled(false);
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    auto account = [&](const PassResult &pass) {
        for (const JobOutcome &j : pass.jobs) {
            ++attempted;
            if (!j.ok) {
                ++failed;
                problems.push_back(j.program + "/" + j.config + ": " +
                                   j.error);
            }
        }
        for (const VerdictCheck &v : pass.verdicts) {
            ++attempted;
            if (!v.ok) {
                ++failed;
                problems.push_back("verdict " + v.name +
                                   " does not match the declared profile");
            }
        }
        problems.insert(problems.end(), pass.invariantFailures.begin(),
                        pass.invariantFailures.end());
    };

    // The warm-up pass runs on one worker: every later pass must then
    // reproduce its digest at the benchmark's worker count, and the
    // process's memory high-water mark after it does not depend on
    // which jobs the sweep happened to run side by side.
    Workload serial = *w;
    serial.workers = 1;
    const PassResult first = runPass(serial, spans);
    const double serial_peak_rss = peakRssMiB();
    account(first);
    const std::string digest = digestText(first);

    std::vector<PassTimes> untraced, traced;
    const std::size_t min_passes = opt.trace ? 2 : 3;
    const auto start = Clock::now();
    for (unsigned i = 0; untraced.size() + traced.size() < min_passes ||
                         secondsSince(start) < opt.seconds;
         ++i) {
        const bool traced_pass = opt.trace && i % 2 == 1;
        spans.setEnabled(traced_pass);
        PassResult pass;
        {
            ScopedSpan root(spans, "bench.pass");
            pass = runPass(*w, spans);
        }
        std::cout << "pass " << i + 1 << (traced_pass ? " (traced)" : "")
                  << ": " << pass.wallSeconds << " s\n";
        account(pass);
        if (digestText(pass) != digest)
            problems.push_back("pass " + std::to_string(i + 1) +
                               ": simulated statistics differ from the "
                               "warm-up pass");
        (traced_pass ? traced : untraced).push_back(passTimes(pass));
    }

    std::vector<Metric> metrics;
    if (!opt.trace) {
        const SimOverheads o = simOverheads(first);
        const HostTimes t = hostTimes(untraced, first, w->workers);
        metrics = {
            {"wall_s", t.wall, "s"},
            {"setup_s", t.setup, "s"},
            {"sim_kips", t.kips, "kop/s"},
            {"peak_rss_mb", serial_peak_rss, "MiB"},
            {"host_us_per_request", t.usPerRequest, "us"},
            {"sim_overhead_rest_secure_pct", o.secure, "%"},
            {"sim_overhead_rest_debug_pct", o.debug, "%"},
            {"sim_overhead_asanopt_pct", o.asanopt, "%"},
        };
    } else {
        spans.setEnabled(true);
        LayerProbe probe(spans, sizing.probeOpCap);
        const auto t0 = Clock::now();
        probeLayers(*w, probe);
        const double probe_wall = secondsSince(t0);
        for (const std::string &f : probe.failures)
            problems.push_back("layer probe: " + f);

        std::vector<PassTimes> all = untraced;
        all.insert(all.end(), traced.begin(), traced.end());
        const HostTimes all_times = hostTimes(all, first, w->workers);
        const double untraced_wall =
            hostTimes(untraced, first, w->workers).wall;
        const double traced_pass_wall =
            hostTimes(traced, first, w->workers).wall;
        const double ns = 1e9;
        metrics = {
            {"workload.generate_s", probe.generateS, "s"},
            {"analysis.instrument_s", probe.instrumentS, "s"},
            {"analysis.verify_s", probe.verifyS, "s"},
            {"runtime.instantiate_s", probe.instantiateS, "s"},
            {"sim.build_s", probe.buildS, "s"},
            {"sim.emulate_ns_per_op",
             ratio(probe.emulateS * ns, double(probe.emulatedOps)), "ns"},
            {"sim.retire_ns_per_op",
             ratio(probe.retireS * ns, double(probe.retiredOps)), "ns"},
            {"sim.sweep_busy_frac", all_times.busyFrac, "frac"},
            {"sim.sweep_wait_s", all_times.waitS, "s"},
            {"cpu.o3_ns_per_op", ratio(probe.o3S * ns, double(probe.o3Ops)),
             "ns"},
            {"cpu.bpred_ns_per_branch",
             ratio(probe.bpredS * ns, double(probe.branches)), "ns"},
            {"mem.access_ns",
             ratio(probe.memS * ns, double(probe.memAccesses)), "ns"},
            {"core.check_ns",
             ratio(probe.coreS * ns, double(probe.coreChecks)), "ns"},
        };
        const std::vector<Metric> counts = layerCounts(first, w->multicore());
        metrics.insert(metrics.end(), counts.begin(), counts.end());

        const std::map<std::string, double> self =
            spans.selfSecondsByLayer("bench.probe");
        std::cout << "\nself time by layer (layer probe, " << std::fixed
                  << std::setprecision(3) << probe_wall << " s):\n";
        for (const std::string layer : layerNames) {
            const auto it = self.find(layer);
            const double s = it == self.end() ? 0.0 : it->second;
            std::cout << "  " << std::left << std::setw(10) << layer
                      << std::right << std::setw(10) << s << " s "
                      << std::setw(6) << std::setprecision(1)
                      << 100.0 * ratio(s, probe_wall) << " %\n"
                      << std::setprecision(3);
            metrics.push_back({layer + ".self_s", s, "s"});
        }
        const double overhead_pct =
            100.0 * (ratio(traced_pass_wall, untraced_wall) - 1.0);
        std::cout << "tracing overhead: traced pass " << traced_pass_wall
                  << " s vs untraced " << untraced_wall << " s ("
                  << std::setprecision(2) << overhead_pct << " %)\n";
        std::cout.unsetf(std::ios::floatfield);
        metrics.push_back({"bench.probe_wall_s", probe_wall, "s"});
        metrics.push_back(
            {"bench.tracing_overhead_pct", overhead_pct, "pct"});

        if (!opt.spansOut.empty() && !spans.writeChromeTrace(opt.spansOut))
            problems.push_back("cannot write spans to " + opt.spansOut);
    }

    std::cout << "\nmetrics (" << untraced.size() << " untraced, "
              << traced.size() << " traced timed passes):\n"
              << std::setprecision(6);
    bool finite = true;
    for (const Metric &m : metrics) {
        std::cout << "  " << std::left << std::setw(34) << m.name
                  << std::right << std::setw(14) << m.value << " "
                  << m.unit << "\n";
        finite &= std::isfinite(m.value);
    }
    if (!finite)
        problems.push_back("a metric is not a finite number");

    const std::uint64_t digest_hash = fnv1a(digest);
    std::cout << "\ndigest of simulated statistics (job order):\n";
    std::istringstream lines(digest);
    for (std::string line; std::getline(lines, line);)
        std::cout << "  digest| " << line << "\n";
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest_hash));
    std::cout << "digest fnv1a64 " << hex << "\n";

    std::cout << "\nattempted " << attempted << ", failed " << failed
              << "\n";
    for (const std::string &p : problems)
        std::cerr << "restbench: " << p << "\n";
    const bool correct = problems.empty();

    std::ostringstream json;
    json << std::setprecision(17) << "{\"correct\": "
         << (correct ? "true" : "false") << ", \"attempted\": " << attempted
         << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        json << (i ? ", " : "") << jsonString(m.name) << ": {\"value\": ";
        if (std::isfinite(m.value))
            json << m.value;
        else
            json << "null";
        json << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    json << "}, \"digest\": \"" << hex << "\", \"build\": {\"compiler\": "
         << jsonString(PERFBENCH_COMPILER)
         << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
         << "}}";
    std::cout << json.str() << std::endl;
    return correct ? 0 : 1;
}
