/**
 * @file
 * Reproduces paper Figure 3: the breakdown of ASan's overhead into
 * its four components — allocator, stack frame setup, memory access
 * validation, and libc API interception — measured on an in-order
 * core (the paper's Fig. 3 setup) by enabling the components
 * cumulatively and differencing.
 *
 * The level sweep runs on the parallel sweep runner (--jobs N);
 * results are written to BENCH_fig3.json.
 */

#include "bench_util.hh"

using namespace rest;

namespace
{

/** Cumulative component stack, in the paper's legend order. */
runtime::SchemeConfig
schemeUpTo(int level)
{
    runtime::SchemeConfig s;
    if (level >= 1)
        s.allocator = runtime::AllocatorKind::Asan; // 1: allocator
    if (level >= 2)
        s.asanStackSetup = true;                    // 2: stack setup
    if (level >= 3)
        s.asanAccessChecks = true;                  // 3: access checks
    if (level >= 4)
        s.asanIntercept = true;                     // 4: API intercept
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::parseOptions(argc, argv, "fig3");
    bench::installGlobalTrace(opt);

    std::cout
        << "=====================================================\n"
        << "Figure 3: breakdown of ASan overhead components (%)\n"
        << "(in-order core; components enabled cumulatively)\n"
        << "=====================================================\n";

    // Level 0 (plain scheme, in-order core) is the baseline column;
    // columns are carried as explicit custom configs because the
    // in-order default baseline is not a preset.
    const char *level_names[] = {"Baseline", "Allocator", "StackSetup",
                                 "AccessValid", "APIIntercept"};
    std::vector<bench::MatrixColumn> columns;
    for (int level = 0; level <= 4; ++level) {
        sim::SystemConfig cfg;
        cfg.scheme = schemeUpTo(level);
        cfg.useInOrderCpu = true; // Fig. 3 uses an in-order core
        columns.push_back(bench::customColumn(level_names[level], cfg));
    }
    // The full stack again with redundant-check elision: how much of
    // the access-validation component static analysis can trim.
    {
        sim::SystemConfig cfg;
        cfg.scheme = schemeUpTo(4);
        cfg.scheme.elideRedundantChecks = true;
        cfg.useInOrderCpu = true;
        columns.push_back(bench::customColumn("ChkElision", cfg));
    }
    // ... and with the loop optimizer on top: invariant checks hoisted
    // to preheaders and adjacent windows coalesced.
    {
        sim::SystemConfig cfg;
        cfg.scheme = schemeUpTo(4);
        cfg.scheme.elideRedundantChecks = true;
        cfg.scheme.hoistLoopChecks = true;
        cfg.scheme.coalesceChecks = true;
        cfg.useInOrderCpu = true;
        columns.push_back(bench::customColumn("ChkHoist", cfg));
    }

    auto mat = bench::runMatrix("asan_breakdown",
                                workload::specSuite(), columns,
                                opt, /*with_baseline=*/false);

    bench::printHeader({"Allocator", "StackSetup", "AccessValid",
                        "APIIntercept", "Total", "Total+Elide",
                        "Total+Elide+Hoist"});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t r = 0; r < mat.rowNames.size(); ++r) {
        // Differencing needs every cumulative level of the row; if
        // any level failed, the components that touch it are
        // undefined and print as "error".
        auto ok = [&](std::size_t level) { return mat.cellOk[level][r]; };
        Cycles base = mat.cells[0][r];
        std::vector<double> row;
        Cycles prev = base;
        for (std::size_t level = 1; level <= 4; ++level) {
            Cycles cur = mat.cells[level][r];
            row.push_back(ok(0) && ok(level - 1) && ok(level)
                              ? 100.0 * (double(cur) - double(prev)) /
                                    double(base)
                              : nan);
            prev = cur;
        }
        row.push_back(ok(0) && ok(4)
                          ? 100.0 * (double(prev) - double(base)) /
                                double(base)
                          : nan);
        row.push_back(ok(0) && ok(5)
                          ? 100.0 * (double(mat.cells[5][r]) -
                                     double(base)) / double(base)
                          : nan);
        row.push_back(ok(0) && ok(6)
                          ? 100.0 * (double(mat.cells[6][r]) -
                                     double(base)) / double(base)
                          : nan);
        bench::printRow(mat.rowNames[r], row);
    }

    std::cout << "\nPaper reference: memory-access validation is the "
                 "most persistent component;\nthe allocator dominates "
                 "for allocation-heavy gcc/xalancbmk.\n"
                 "Total+Elide repeats the full stack with statically "
                 "provable redundant checks deleted;\n"
                 "Total+Elide+Hoist additionally hoists loop-invariant "
                 "checks and coalesces adjacent windows.\n";

    bench::writeResults(opt, "fig3", {std::move(mat.sweep)});
    return 0;
}
