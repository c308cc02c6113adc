/**
 * @file
 * perf_report: guard the committed perf trajectory (DESIGN.md §11).
 *
 * Loads the "perf" block of a committed BENCH_*.json (the reference
 * simulator-throughput run, e.g. BENCH_fig7.json from PR 6) and
 * either:
 *   - checks it standalone (`--baseline FILE`): fast-functional
 *     speedup floor verdict (default ≥10×, the figure CI asserts);
 *   - compares another results file (`--current FILE`); or
 *   - runs a fresh probe (`--probe`) on the baseline's probe benchmark
 *     and compares, emitting a per-mode KIPS delta verdict table.
 *
 * Exit status: 0 = ok, 1 = regression / below floor, 2 = bad
 * arguments or unreadable baseline. CI runs the probe comparison as
 * an informational (non-blocking) job and the floor check blocking.
 */

#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "bench_util.hh"
#include "sim/perf_report.hh"

using namespace rest;

namespace
{

[[noreturn]] void
usage(int status)
{
    (status ? std::cerr : std::cout)
        << "usage: perf_report --baseline FILE [--current FILE | "
           "--probe]\n"
           "                   [--threshold PCT] [--speedup-floor X]\n"
           "                   [--bench NAME] [--reps N]\n"
           "  --baseline FILE    committed BENCH_*.json with a "
           "\"perf\" block (required)\n"
           "  --current FILE     compare FILE's perf block against "
           "the baseline\n"
           "  --probe            run a fresh KIPS probe (detailed / "
           "fast-functional /\n"
           "                     sampled, Secure Full) and compare\n"
           "  --threshold PCT    flag a mode whose KIPS fell by more "
           "than PCT (default 20)\n"
           "  --speedup-floor X  minimum fast-functional speedup "
           "(default 10; 0 = off)\n"
           "  --bench NAME       probe benchmark (default: the "
           "baseline's)\n"
           "  --reps N           timed probe repetitions per mode "
           "(default 3)\n";
    std::exit(status);
}

/** The same KIPS probe fig7's --perf runs, on an arbitrary bench. */
sim::PerfRecord
probe(const std::string &bench_name, unsigned reps)
{
    auto p = workload::profileByName(bench_name);

    sim::ExecutionConfig fast;
    fast.fastFunctional = true;
    sim::ExecutionConfig sampled;
    sampled.sampling.intervalOps = 100000;

    sim::PerfRecord perf;
    perf.bench = bench_name;
    perf.kiloInsts = bench::kiloInsts();
    perf.kipsDetailed = bench::measureKips(
        p, sim::ExpConfig::RestSecureFull, {}, reps);
    perf.kipsFastFunctional = bench::measureKips(
        p, sim::ExpConfig::RestSecureFull, fast, reps);
    perf.kipsSampled = bench::measureKips(
        p, sim::ExpConfig::RestSecureFull, sampled, reps);
    if (perf.kipsDetailed > 0) {
        perf.speedupFastFunctional =
            perf.kipsFastFunctional / perf.kipsDetailed;
        perf.speedupSampled = perf.kipsSampled / perf.kipsDetailed;
    }
    return perf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline_path, current_path, bench_name;
    bool run_probe = false;
    double threshold = 20.0, floor = 10.0;
    unsigned reps = 3;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "perf_report: " << a
                          << " requires a value\n";
                usage(2);
            }
            return argv[++i];
        };
        if (a == "--baseline") {
            baseline_path = next();
        } else if (a == "--current") {
            current_path = next();
        } else if (a == "--probe") {
            run_probe = true;
        } else if (a == "--threshold") {
            threshold = std::strtod(next().c_str(), nullptr);
        } else if (a == "--speedup-floor") {
            floor = std::strtod(next().c_str(), nullptr);
        } else if (a == "--bench") {
            bench_name = next();
        } else if (a == "--reps") {
            reps = unsigned(std::strtoul(next().c_str(), nullptr, 10));
            if (reps == 0)
                reps = 1;
        } else if (a == "--help" || a == "-h") {
            usage(0);
        } else {
            std::cerr << "perf_report: unknown argument \"" << a
                      << "\"\n";
            usage(2);
        }
    }
    if (baseline_path.empty()) {
        std::cerr << "perf_report: --baseline is required\n";
        usage(2);
    }
    if (run_probe && !current_path.empty()) {
        std::cerr << "perf_report: --probe and --current are "
                     "mutually exclusive\n";
        usage(2);
    }

    auto baseline = sim::loadPerfBaseline(baseline_path);
    if (!baseline)
        return 2;
    std::cout << "perf report: baseline " << baseline->path << " ("
              << baseline->figure << ", bench " << baseline->perf.bench
              << ", " << baseline->perf.kiloInsts << " kinst)\n";

    sim::PerfReport report;
    if (run_probe) {
        if (bench_name.empty())
            bench_name = baseline->perf.bench;
        std::cout << "probing " << bench_name << " at "
                  << bench::kiloInsts() << " kinst, best of " << reps
                  << " reps per mode...\n";
        report = sim::comparePerf(baseline->perf,
                                  probe(bench_name, reps), threshold,
                                  floor);
    } else if (!current_path.empty()) {
        auto current = sim::loadPerfBaseline(current_path);
        if (!current)
            return 2;
        std::cout << "current:  " << current->path << " ("
                  << current->figure << ", bench "
                  << current->perf.bench << ", "
                  << current->perf.kiloInsts << " kinst)\n";
        report = sim::comparePerf(baseline->perf, current->perf,
                                  threshold, floor);
    } else {
        report = sim::checkBaseline(baseline->perf, floor);
    }

    printPerfReport(report, std::cout);
    return report.anyRegression() ? 1 : 0;
}
