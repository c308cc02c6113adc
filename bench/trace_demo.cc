/**
 * @file
 * trace_demo: exercises the rest::trace observability layer end to
 * end on a real simulated system.
 *
 *   1. Runs one benchmark with a per-System trace sink: debug flags
 *      (--debug-flags), a Chrome trace-event export (--trace-out,
 *      loadable in Perfetto / chrome://tracing), an O3PipeView
 *      instruction trace (--pipeview-out, Konata-compatible; written
 *      by default when O3Pipe is enabled), and periodic stat
 *      snapshots (--stats-every, default 10000 cycles).
 *   2. Runs a small sweep whose per-interval stat deltas surface in
 *      the BENCH_trace_demo.json results file ("stat_series").
 *
 * Example:
 *   trace_demo --trace-out t.json --debug-flags=O3Pipe,Cache
 */

#include "bench_util.hh"
#include "sim/system.hh"

using namespace rest;

int
main(int argc, char **argv)
{
    auto opt = bench::parseOptions(argc, argv, "trace_demo");

    // Per-System sink (not the process-global one): the System writes
    // the configured outputs itself at the end of run().
    trace::TraceConfig tcfg = opt.traceConfig();
    if (tcfg.flags == 0)
        tcfg.flags = trace::TraceConfig::fromEnv().flags;
    if (tcfg.statsEvery == 0)
        tcfg.statsEvery = 10000;
    if (tcfg.pipeViewPath.empty() &&
        (tcfg.flags & trace::flagBit(trace::Flag::O3Pipe))) {
        tcfg.pipeViewPath = "trace_demo.pipeview";
    }

    std::cout << "==============================================\n"
              << "trace_demo: the rest::trace layer, end to end\n"
              << "==============================================\n";

    sim::SystemConfig cfg =
        sim::makeSystemConfig(sim::ExpConfig::RestSecureFull);
    cfg.trace = tcfg;
    auto profile = workload::profileByName("xalancbmk");
    profile.targetKiloInsts = bench::kiloInsts();

    sim::System system(workload::generate(profile), cfg);
    sim::SystemResult result = system.run();

    std::cout << "\nbench " << profile.name << " (SecureFull): "
              << result.cycles() << " cycles, "
              << result.run.committedOps << " ops\n";

    trace::TraceSink *sink = system.traceSink();
    std::cout << "trace events: " << sink->eventsRecorded()
              << " recorded, " << sink->eventsDropped()
              << " dropped, " << sink->trackNames().size()
              << " tracks\n"
              << "pipeview records: " << sink->pipeRecords().size()
              << "\n";
    if (!tcfg.traceOutPath.empty())
        std::cout << "chrome trace: " << tcfg.traceOutPath << "\n";
    if (!tcfg.pipeViewPath.empty())
        std::cout << "o3 pipeview: " << tcfg.pipeViewPath << "\n";

    // The periodic time series, as a small table (first 8 intervals).
    auto series = system.statSnapshots();
    std::cout << "\nstat snapshots every " << tcfg.statsEvery
              << " cycles: " << series.size() << " intervals\n";
    std::cout << std::left << std::setw(12) << "cycle" << std::right
              << std::setw(14) << "d_ops" << std::setw(14)
              << "d_l1d_miss" << std::setw(14) << "d_l2_miss" << "\n"
              << std::string(54, '-') << "\n";
    std::size_t shown = 0;
    for (const auto &snap : series) {
        if (shown++ >= 8) {
            std::cout << "  ... (" << series.size() - 8 << " more)\n";
            break;
        }
        auto delta = [&snap](const char *key) -> std::uint64_t {
            auto it = snap.deltas.find(key);
            return it == snap.deltas.end() ? 0 : it->second;
        };
        std::cout << std::left << std::setw(12) << snap.cycle
                  << std::right << std::setw(14)
                  << delta("o3cpu.committed_ops") << std::setw(14)
                  << delta("l1d.misses") << std::setw(14)
                  << delta("l2.misses") << "\n";
    }

    // A small sweep whose cells carry the per-interval deltas into
    // the results JSON ("stat_series").
    sim::SystemConfig stats_cfg =
        sim::makeSystemConfig(sim::ExpConfig::RestSecureFull);
    stats_cfg.trace.statsEvery = tcfg.statsEvery;
    const std::vector<bench::MatrixColumn> columns = {
        {"SecureFullStats", stats_cfg},
    };
    const std::vector<workload::BenchProfile> rows = {
        workload::profileByName("bzip2"),
        workload::profileByName("astar"),
    };
    std::cout << "\nsweep with per-interval stats (overhead %):\n";
    auto mat = bench::runMatrix("stats_series", rows, columns, opt);
    bench::printOverheadTable(mat);
    bench::writeResults(opt, "trace_demo", {std::move(mat.sweep)});
    return 0;
}
