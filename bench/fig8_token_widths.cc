/**
 * @file
 * Reproduces paper Figure 8: secure-mode runtime overheads with
 * 16-byte, 32-byte and 64-byte tokens, for full and heap-only
 * protection. The paper's conclusion: width choice does not move
 * performance significantly, so robustness can be chosen freely.
 *
 * Runs on the parallel sweep runner (--jobs N); results are written
 * to BENCH_fig8.json.
 */

#include "bench_util.hh"

using namespace rest;
using sim::ExpConfig;

int
main(int argc, char **argv)
{
    auto opt = bench::parseOptions(argc, argv, "fig8");
    bench::installGlobalTrace(opt);

    std::cout << "==================================================\n"
              << "Figure 8: token width overheads, secure mode (%)\n"
              << "==================================================\n";

    const std::vector<bench::MatrixColumn> columns = {
        bench::presetColumn("16 Full", ExpConfig::RestSecureFull,
                            core::TokenWidth::Bytes16),
        bench::presetColumn("32 Full", ExpConfig::RestSecureFull,
                            core::TokenWidth::Bytes32),
        bench::presetColumn("64 Full", ExpConfig::RestSecureFull,
                            core::TokenWidth::Bytes64),
        bench::presetColumn("16 Heap", ExpConfig::RestSecureHeap,
                            core::TokenWidth::Bytes16),
        bench::presetColumn("32 Heap", ExpConfig::RestSecureHeap,
                            core::TokenWidth::Bytes32),
        bench::presetColumn("64 Heap", ExpConfig::RestSecureHeap,
                            core::TokenWidth::Bytes64),
    };

    auto mat = bench::runMatrix("token_widths", workload::specSuite(),
                                columns, opt);
    bench::printOverheadTable(mat);

    std::cout << "\nPaper reference: no single token width makes a "
                 "significant performance difference.\n";

    bench::writeResults(opt, "fig8", {std::move(mat.sweep)});
    return 0;
}
