/**
 * @file
 * Ablation studies of the design choices DESIGN.md calls out:
 *   1. LSQ matching logic vs. serializing arm/disarm (paper §III-B:
 *      "this option, while simple to implement, can introduce
 *      significant performance penalties"),
 *   2. debug-mode delayed store commit (the entire secure/debug gap),
 *   3. critical-word-first off (precise-exception support cost),
 *   4. quarantine budget sweep (temporal-protection window vs cost),
 *   5. redundant shadow-check elision (ASan with the statically
 *      provable duplicate checks deleted, analysis/elide_checks.hh),
 *   6. loop-check optimization (invariant checks hoisted to loop
 *      preheaders and adjacent windows coalesced, on top of elision;
 *      analysis/hoist_checks.hh, analysis/coalesce_checks.hh),
 *   7. protection-scheme backends (every registered ProtectionScheme
 *      — asan, rest, mte, pauth — on the same rows, overhead against
 *      the shared plain baseline; runtime/protection_scheme.hh).
 *
 * Each ablation is a small matrix on the parallel sweep runner
 * (--jobs N); all seven sweeps land in BENCH_ablation.json.
 */

#include "bench_util.hh"
#include "runtime/protection_scheme.hh"
#include "sim/system.hh"

using namespace rest;
using sim::ExpConfig;

namespace
{

std::vector<workload::BenchProfile>
profiles(std::initializer_list<const char *> names)
{
    std::vector<workload::BenchProfile> out;
    for (const char *name : names)
        out.push_back(workload::profileByName(name));
    return out;
}

/** Print a matrix (run with a Plain baseline) as overhead %. */
void
printOverheads(const bench::MatrixResult &mat)
{
    bench::printHeader(mat.colNames);
    for (std::size_t r = 0; r < mat.rowNames.size(); ++r) {
        std::vector<double> row;
        for (std::size_t c = 0; c < mat.colNames.size(); ++c)
            row.push_back(mat.overheadAt(c, r));
        bench::printRow(mat.rowNames[r], row);
    }
}

bench::MatrixResult
lsqSerializationAblation(const bench::Options &opt)
{
    std::cout << "\n--- Ablation 1: LSQ matching logic vs "
                 "serialization ---\n";
    auto matching = sim::makeSystemConfig(ExpConfig::RestSecureFull);
    auto serialized = matching;
    serialized.cpuConfig.serializeRestOps = true;
    auto mat = bench::runMatrix(
        "lsq_serialization", profiles({"xalancbmk", "gcc", "gobmk"}),
        {{"matching(%)", matching},
         {"serialized(%)", serialized}},
        opt);
    printOverheads(mat);
    std::cout << "Expected: serialization costs strictly more, "
                 "especially with frequent arm/disarm.\n";
    return mat;
}

bench::MatrixResult
storeCommitAblation(const bench::Options &opt)
{
    std::cout << "\n--- Ablation 2: delayed store commit in "
                 "isolation ---\n";
    // Secure mode with only the delayed-store-commit change.
    auto delayed = sim::makeSystemConfig(ExpConfig::RestSecureFull);
    delayed.cpuConfig.delayStoreCommit = true;
    auto mat = bench::runMatrix(
        "store_commit", profiles({"xalancbmk", "soplex", "lbm"}),
        {{"secure(%)", sim::makeSystemConfig(ExpConfig::RestSecureFull)},
         {"sec+delay(%)", delayed},
         {"debug(%)", sim::makeSystemConfig(ExpConfig::RestDebugFull)}},
        opt);
    printOverheads(mat);
    std::cout << "Expected: delayed store commit accounts for nearly "
                 "the whole secure->debug gap.\n";
    return mat;
}

bench::MatrixResult
quarantineSweep(const bench::Options &opt)
{
    std::cout << "\n--- Ablation 3: quarantine budget sweep "
                 "(xalancbmk, secure heap) ---\n";
    std::vector<bench::MatrixColumn> columns;
    for (auto [budget, name] :
         {std::pair{64ul << 10, "64KiB(%)"},
          std::pair{256ul << 10, "256KiB(%)"},
          std::pair{1ul << 20, "1MiB(%)"},
          std::pair{4ul << 20, "4MiB(%)"}}) {
        auto cfg = sim::makeSystemConfig(ExpConfig::RestSecureHeap);
        cfg.scheme.quarantineBudget = budget;
        columns.push_back({name, cfg});
    }
    auto mat = bench::runMatrix("quarantine_budget",
                                profiles({"xalancbmk"}), columns,
                                opt);
    printOverheads(mat);
    std::cout << "Larger budgets widen the UAF detection window; the "
                 "cost moves with drain/recycle behaviour.\n";
    return mat;
}

bench::MatrixResult
criticalWordFirstAblation(const bench::Options &opt)
{
    std::cout << "\n--- Ablation 4: critical-word-first off "
                 "(precise-exception support, SIII-B) ---\n";
    auto off = sim::makeSystemConfig(ExpConfig::RestSecureFull);
    off.cpuConfig.criticalWordFirst = false;
    auto mat = bench::runMatrix(
        "critical_word_first", profiles({"astar", "libquantum"}),
        {{"cwf on(%)", sim::makeSystemConfig(ExpConfig::RestSecureFull)},
         {"cwf off(%)", off}},
        opt);
    printOverheads(mat);
    std::cout << "The fill tail shows on latency-bound (chase) "
                 "workloads and hides on bandwidth-bound ones.\n";
    return mat;
}

bench::MatrixResult
checkElisionAblation(const bench::Options &opt)
{
    std::cout << "\n--- Ablation 5: redundant shadow-check elision "
                 "(static analysis) ---\n";
    auto elide = sim::makeSystemConfig(ExpConfig::Asan);
    elide.scheme.elideRedundantChecks = true;
    auto mat = bench::runMatrix(
        "check_elision", profiles({"bzip2", "hmmer", "xalancbmk"}),
        {{"asan(%)", sim::makeSystemConfig(ExpConfig::Asan)},
         {"asan+elide(%)", elide}},
        opt);
    printOverheads(mat);
    std::cout << "Expected: elision trims the access-validation "
                 "component wherever the generators re-check a base "
                 "register the dataflow already proved safe.\n";
    return mat;
}

bench::MatrixResult
loopOptimizerAblation(const bench::Options &opt)
{
    std::cout << "\n--- Ablation 6: loop-check hoisting + coalescing "
                 "(static analysis) ---\n";
    auto elide = sim::makeSystemConfig(ExpConfig::Asan);
    elide.scheme.elideRedundantChecks = true;
    auto hoist = elide;
    hoist.scheme.hoistLoopChecks = true;
    auto coalesce = elide;
    coalesce.scheme.coalesceChecks = true;
    auto both = hoist;
    both.scheme.coalesceChecks = true;
    // Loop-heavy streaming/scan profiles: their hot loops re-check
    // invariant bases every iteration, the hoister's best case.
    auto mat = bench::runMatrix(
        "loop_optimizer", profiles({"hmmer", "libquantum", "lbm"}),
        {{"elide(%)", elide},
         {"+hoist(%)", hoist},
         {"+coalesce(%)", coalesce},
         {"+both(%)", both}},
        opt);
    printOverheads(mat);
    std::cout << "Expected: hoisting removes per-iteration checks of "
                 "loop-invariant bases, so +hoist executes strictly "
                 "fewer dynamic check ops than elide alone.\n";
    return mat;
}

bench::MatrixResult
schemeBackendAblation(const bench::Options &opt)
{
    std::cout << "\n--- Ablation 7: protection-scheme backends "
                 "(registry sweep) ---\n";
    std::vector<bench::MatrixColumn> columns;
    for (const runtime::ProtectionScheme *ps : runtime::allSchemes()) {
        if (std::string(ps->id()) == "plain")
            continue; // the shared baseline column
        auto cfg = sim::makeSystemConfig(ExpConfig::Plain);
        cfg.scheme = ps->baseConfig();
        columns.push_back({std::string(ps->id()) + "(%)", cfg});
    }
    auto mat = bench::runMatrix("scheme_backends",
                                profiles({"bzip2", "gobmk", "sjeng"}),
                                columns, opt);
    printOverheads(mat);
    std::cout << "asan pays for inline shadow checks, rest for token "
                 "sprinkling/arming; mte and\npauth only pay "
                 "allocator-side tag costs (mte's STG is timed as a "
                 "granule-wide\ndata store that write-allocates the "
                 "payload line before first touch: a\nprefetch that "
                 "can read as negative overhead).\n";
    return mat;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::parseOptions(argc, argv, "ablation");
    bench::installGlobalTrace(opt);

    std::cout << "====================================\n"
              << "Design-choice ablations (see DESIGN.md)\n"
              << "====================================\n";
    std::vector<sim::SweepResults> sweeps;
    sweeps.push_back(lsqSerializationAblation(opt).sweep);
    sweeps.push_back(storeCommitAblation(opt).sweep);
    sweeps.push_back(quarantineSweep(opt).sweep);
    sweeps.push_back(criticalWordFirstAblation(opt).sweep);
    sweeps.push_back(checkElisionAblation(opt).sweep);
    sweeps.push_back(loopOptimizerAblation(opt).sweep);
    sweeps.push_back(schemeBackendAblation(opt).sweep);
    bench::writeResults(opt, "ablation", std::move(sweeps));
    return 0;
}
