/**
 * @file
 * Reproduces paper Figure 7: runtime overheads of ASan and of REST in
 * debug, secure and perfect-hardware modes, for full (stack + heap)
 * and heap-only protection, per benchmark, plus the weighted
 * arithmetic mean (footnote 5) and geometric mean (footnote 6).
 *
 * The benchmark × configuration matrix runs on the parallel sweep
 * runner (--jobs N); results are written to BENCH_fig7.json. How fast
 * the simulator runs this matrix is perfbench's spec_detailed workload,
 * not a figure of this harness.
 *
 * Pass --detail to additionally print the §VI-B microarchitectural
 * effects for xalancbmk (ROB-blocked-by-store and IQ-full cycles in
 * secure vs debug mode, and token traffic).
 */

#include "bench_util.hh"
#include "sim/system.hh"

using namespace rest;
using sim::ExpConfig;

namespace
{

void
detailXalancbmk()
{
    std::cout << "\n--- SVI-B detail: xalancbmk secure vs debug ---\n";
    for (auto config : {ExpConfig::RestSecureFull,
                        ExpConfig::RestDebugFull}) {
        auto p = workload::profileByName("xalancbmk");
        p.targetKiloInsts = bench::kiloInsts();
        sim::Measurement m = sim::runBench(p, config);
        double kinst = double(m.ops) / 1000.0;
        std::cout << sim::expConfigName(config) << ":\n"
                  << "  rob_store_blocked_cycles = "
                  << m.scalars["o3cpu.rob_store_blocked_cycles"] << "\n"
                  << "  iq_full_stall_cycles     = "
                  << m.scalars["o3cpu.iq_full_stall_cycles"] << "\n"
                  << "  tokens evicted L1->L2 per kinst = "
                  << double(m.scalars["l1d.token_evictions"]) / kinst
                  << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::parseOptions(argc, argv, "fig7");
    bench::installGlobalTrace(opt);

    std::cout << "==============================================\n"
              << "Figure 7: runtime overheads over plain (%)\n"
              << "==============================================\n";

    // ASan with statically redundant shadow checks deleted
    // (analysis/elide_checks.hh) — same detection coverage, fewer
    // dynamic instructions.
    sim::SystemConfig asan_elide =
        sim::makeSystemConfig(ExpConfig::Asan);
    asan_elide.scheme.elideRedundantChecks = true;

    // ... plus the loop optimizer: invariant checks hoisted to
    // preheaders (analysis/hoist_checks.hh) and adjacent shadow
    // windows coalesced (analysis/coalesce_checks.hh).
    sim::SystemConfig asan_opt = asan_elide;
    asan_opt.scheme.hoistLoopChecks = true;
    asan_opt.scheme.coalesceChecks = true;

    const std::vector<bench::MatrixColumn> columns = {
        bench::presetColumn("ASan", ExpConfig::Asan),
        bench::customColumn("ASanElide", asan_elide),
        bench::customColumn("ASanOpt", asan_opt),
        bench::presetColumn("DebugFull", ExpConfig::RestDebugFull),
        bench::presetColumn("SecureFull", ExpConfig::RestSecureFull),
        bench::presetColumn("PerfectHWFull", ExpConfig::PerfectHwFull),
        bench::presetColumn("DebugHeap", ExpConfig::RestDebugHeap),
        bench::presetColumn("SecureHeap", ExpConfig::RestSecureHeap),
        bench::presetColumn("PerfectHWHeap", ExpConfig::PerfectHwHeap),
    };

    auto mat = bench::runMatrix("overheads", workload::specSuite(),
                                columns, opt);
    bench::printOverheadTable(mat);

    std::cout << "\nPaper reference (WtdAriMean): ASan ~40%+ "
                 "(outliers to 450%), Debug ~25%, Secure ~2%, "
                 "PerfectHW within 0.2% of Secure;\nfull vs heap "
                 "differ by ~0.16% on average.\n";

    bench::writeResults(opt, "fig7", {std::move(mat.sweep)});

    if (opt.detail)
        detailXalancbmk();
    return 0;
}
