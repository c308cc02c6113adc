/**
 * @file
 * Multicore scaling study (DESIGN.md §16): how does each protection
 * scheme's overhead behave when the paper's single-core evaluation
 * machine becomes an N-core MESI-coherent server?
 *
 * Two measurements, both on the Zipf server mix
 * (workload/server_mix.hh) over sim::MultiCoreSystem:
 *
 *   1. Scaling sweep: core counts (powers of two up to --cores) ×
 *      registered schemes, detailed timing. The printed table and
 *      the "scaling" sweep in the JSON carry overhead vs the plain
 *      machine at the same core count, per-core CPI and the
 *      coherence-bus traffic counters.
 *   2. Concurrency attack matrix: the three cross-thread attack
 *      scenarios (workload/attack_scenarios.hh) on a detailed
 *      >=2-core machine per scheme, verdicts checked against each
 *      scheme's declared DetectionProfile — the multicore analogue of
 *      tab3's conformance gate (a mismatch fails the run). REST's
 *      cross-thread verdicts flow through the per-L1 token detector
 *      on real coherence transfers.
 *
 * How fast the simulator runs the multicore machine is perfbench's
 * server_multicore workload, not a figure of this harness.
 *
 * Results land in BENCH_multicore.json using the standard results
 * schema (sim/results.hh): one "scaling" sweep shaped rows=cores ×
 * columns=schemes, and one "concurrency_attacks" sweep shaped
 * rows=scenarios × columns=schemes whose cells carry the verdicts as
 * scalars.
 */

#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_util.hh"
#include "sim/multicore.hh"
#include "sim/scheme_matrix.hh"
#include "util/logging.hh"
#include "workload/server_mix.hh"

using namespace rest;

namespace
{

/** Token/tag seed shared by every run (tab3's matrix seed). */
constexpr std::uint64_t tokenSeed = 0xc0ffee;

/** Power-of-two core counts up to 'max_cores', plus max itself. */
std::vector<unsigned>
coreCounts(unsigned max_cores)
{
    std::vector<unsigned> counts;
    for (unsigned n = 1; n <= max_cores; n *= 2)
        counts.push_back(n);
    if (counts.back() != max_cores)
        counts.push_back(max_cores);
    return counts;
}

/** Resolve --schemes like tab3 does; empty = every registered one. */
std::vector<std::pair<const runtime::ProtectionScheme *,
                      runtime::SchemeConfig>>
resolveSchemes(const std::string &csv)
{
    std::vector<std::pair<const runtime::ProtectionScheme *,
                          runtime::SchemeConfig>> out;
    if (csv.empty()) {
        for (const runtime::ProtectionScheme *ps : runtime::allSchemes())
            out.emplace_back(ps, ps->baseConfig());
        return out;
    }
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        runtime::SchemeConfig cfg;
        std::string err;
        if (!runtime::parseSchemeSpec(item, cfg, err)) {
            std::cerr << "multicore: --schemes: " << err
                      << "; registered:";
            for (const runtime::ProtectionScheme *ps :
                 runtime::allSchemes())
                std::cerr << " " << ps->id();
            std::cerr << "\n";
            std::exit(1);
        }
        out.emplace_back(&runtime::schemeForConfig(cfg), cfg);
    }
    return out;
}

/** The server mix at one core count, sized from REST_BENCH_KILOINSTS
 *  (requests, not ops: each request is a few hundred ops). */
workload::ServerMixConfig
mixConfig(unsigned cores)
{
    workload::ServerMixConfig wl;
    wl.cores = cores;
    wl.requestsPerCore =
        std::max<std::uint64_t>(4, bench::kiloInsts() / 16);
    return wl;
}

/** One machine run plus everything the tables and JSON consume. */
struct McRun
{
    sim::MultiCoreResult res;
    std::map<std::string, std::uint64_t> scalars;
    bool ok = false;          ///< retired cleanly (no fault)
    std::string error;
};

/** Run the server mix: 'cores' cores under 'scheme'. */
McRun
runMix(const runtime::SchemeConfig &scheme, unsigned cores,
       bool fast_functional)
{
    McRun out;
    sim::MultiCoreConfig mc;
    mc.base.scheme = scheme;
    mc.base.tokenSeed = tokenSeed;
    mc.base.exec.fastFunctional = fast_functional;
    mc.cores = cores;
    sim::MultiCoreSystem sys(workload::serverMix(mixConfig(cores)), mc);

    out.res = sys.run();

    if (out.res.faulted()) {
        // The server mix is benign: a fault here is a scheme bug
        // (e.g. a false positive), not a measurement.
        std::ostringstream err;
        err << "benign server mix faulted on core " << out.res.faultCore
            << " (" << out.res.violation().toString() << ")";
        out.error = err.str();
        return out;
    }
    out.ok = true;

    auto snap = [&out](const std::string &name, std::uint64_t v) {
        out.scalars.emplace(name, v);
    };
    for (unsigned c = 0; c < cores; ++c) {
        const cpu::RunResult &r = out.res.cores[c];
        const std::string prefix = "core" + std::to_string(c) + ".";
        snap(prefix + "cycles", r.cycles);
        snap(prefix + "ops", r.committedOps);
        // CPI in milli-units: the scalar map is integral.
        snap(prefix + "cpi_milli",
             r.committedOps
                 ? std::uint64_t(double(r.cycles) * 1000.0 /
                                 double(r.committedOps))
                 : 0);
    }
    if (sys.bus())
        sys.bus()->statGroup().forEachScalar(snap);
    snap("mc.arms_executed", out.res.armsExecuted);
    snap("mc.disarms_executed", out.res.disarmsExecuted);
    snap("mc.malloc_calls", out.res.mallocCalls);
    snap("mc.free_calls", out.res.freeCalls);
    return out;
}

/** Machine CPI over all cores; NaN when nothing retired. */
double
machineCpi(const sim::MultiCoreResult &res)
{
    return res.committedOps
               ? double(res.cycles) / double(res.committedOps)
               : std::numeric_limits<double>::quiet_NaN();
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::parseOptions(argc, argv, "multicore");
    bench::installGlobalTrace(opt);
    if (opt.exec.sampling.active()) {
        std::cerr << "multicore: sampled execution is not supported "
                  << "on the multicore machine\n";
        return 2;
    }

    const auto selected = resolveSchemes(opt.schemes);
    const std::vector<unsigned> counts = coreCounts(opt.cores);
    const workload::ServerMixConfig shape = mixConfig(opt.cores);

    std::cout << "====================================================\n"
              << "Multicore scaling: " << opt.workload << " mix, "
              << shape.requestsPerCore << " requests/core, Zipf("
              << shape.hotObjects << ", " << shape.zipfTheta << ")\n"
              << "MESI bus + shared L2/DRAM; detection per private L1\n"
              << "====================================================\n";

    // ---- 1. The scaling sweep: core counts × schemes ----
    // Columns keyed by registry id; the plain machine is always the
    // "Plain" baseline column, selected or not.
    std::vector<std::pair<std::string, runtime::SchemeConfig>> columns;
    columns.emplace_back("Plain", runtime::SchemeConfig::plain());
    for (const auto &[scheme, cfg] : selected)
        if (std::string(scheme->id()) != "plain")
            columns.emplace_back(scheme->id(), cfg);

    sim::SweepResults scaling;
    scaling.name = "scaling";
    for (const auto &[name, cfg] : columns)
        scaling.columns.push_back(name);

    bool all_ok = true;
    // runs[column name][row index] mirrors runMatrix's aggregation.
    std::map<std::string, std::vector<McRun>> runs;
    for (unsigned cores : counts) {
        const std::string row = "cores=" + std::to_string(cores);
        scaling.rows.push_back(row);
        for (const auto &[col, cfg] : columns) {
            McRun run = runMix(cfg, cores, opt.exec.fastFunctional);
            if (!run.ok) {
                all_ok = false;
                rest_warn("multicore: ", col, " @ ", row, ": ",
                          run.error);
            }

            sim::SweepCell cell;
            cell.bench = row;
            cell.column = col;
            cell.ok = run.ok;
            cell.error = run.error;
            if (run.ok) {
                cell.cycles = run.res.cycles;
                cell.ops = run.res.committedOps;
                cell.seedCycles.push_back(run.res.cycles);
                cell.scalars = run.scalars;
                if (run.res.fastFunctional)
                    cell.execMode = "fast-functional";
                if (col == "Plain")
                    scaling.baselineCycles[row] = run.res.cycles;
            }
            scaling.cells.push_back(std::move(cell));
            runs[col].push_back(std::move(run));
        }
    }

    // Per-column aggregate overhead across core counts (the standard
    // optional means; rows where either side failed are skipped).
    for (const std::string &col : scaling.columns) {
        if (col == "Plain")
            continue;
        std::vector<Cycles> base, cyc;
        for (std::size_t r = 0; r < counts.size(); ++r) {
            if (!runs["Plain"][r].ok || !runs[col][r].ok)
                continue;
            base.push_back(runs["Plain"][r].res.cycles);
            cyc.push_back(runs[col][r].res.cycles);
        }
        const double nan = std::numeric_limits<double>::quiet_NaN();
        scaling.wtdAriMeanPct[col] =
            base.empty() ? nan
                         : sim::wtdAriMeanOverheadPct(base, cyc);
        scaling.geoMeanPct[col] =
            base.empty() ? nan : sim::geoMeanOverheadPct(base, cyc);
    }

    // Overhead vs the plain machine at the same core count.
    std::cout << "\nOverhead vs plain at equal core count (%"
              << (opt.exec.fastFunctional
                      ? ", fast-functional: nominal cycles"
                      : "")
              << "):\n";
    std::vector<std::string> overhead_cols(scaling.columns.begin() + 1,
                                           scaling.columns.end());
    bench::printHeader(overhead_cols);
    for (std::size_t r = 0; r < counts.size(); ++r) {
        std::vector<double> row;
        for (const std::string &col : overhead_cols) {
            const McRun &plain = runs["Plain"][r];
            const McRun &cell = runs[col][r];
            row.push_back(
                plain.ok && cell.ok
                    ? sim::overheadPct(plain.res.cycles,
                                       cell.res.cycles)
                    : std::numeric_limits<double>::quiet_NaN());
        }
        bench::printRow(scaling.rows[r], row);
    }

    // Machine CPI (cycles of the slowest core per machine-wide op).
    std::cout << "\nMachine CPI (slowest core's clock / total ops):\n";
    bench::printHeader(scaling.columns);
    for (std::size_t r = 0; r < counts.size(); ++r) {
        std::vector<double> row;
        for (const std::string &col : scaling.columns) {
            const McRun &cell = runs[col][r];
            row.push_back(cell.ok
                              ? machineCpi(cell.res)
                              : std::numeric_limits<double>::quiet_NaN());
        }
        bench::printRow(scaling.rows[r], row);
    }

    // Coherence traffic: invalidations + cache-to-cache transfers per
    // kilo-op, machine-wide (zeros on the bus-less 1-core machine).
    std::cout << "\nCoherence traffic (invalidations+transfers per "
              << "kilo-op):\n";
    bench::printHeader(scaling.columns);
    for (std::size_t r = 0; r < counts.size(); ++r) {
        std::vector<double> row;
        for (const std::string &col : scaling.columns) {
            const McRun &cell = runs[col][r];
            if (!cell.ok || !cell.res.committedOps) {
                row.push_back(std::numeric_limits<double>::quiet_NaN());
                continue;
            }
            auto scalar = [&cell](const char *name) -> double {
                auto it = cell.scalars.find(name);
                return it == cell.scalars.end() ? 0.0
                                                : double(it->second);
            };
            row.push_back((scalar("coherence_bus.invalidations") +
                           scalar("coherence_bus.transfers")) *
                          1000.0 / double(cell.res.committedOps));
        }
        bench::printRow(scaling.rows[r], row);
    }

    // ---- 2. The concurrency attack matrix ----
    const unsigned attack_cores = std::max(2u, std::min(opt.cores, 4u));
    std::cout << "\nConcurrency attacks on a detailed " << attack_cores
              << "-core machine (C = caught, . = missed):\n";
    sim::SweepResults attacks;
    attacks.name = "concurrency_attacks";
    for (const sim::ConcurrencyScenarioInfo &s :
         sim::concurrencyScenarios())
        attacks.rows.push_back(s.key);

    std::vector<sim::ConcurrencyVerdicts> verdicts;
    std::vector<bool> conforms;
    bool all_conform = true;
    for (const auto &[scheme, cfg] : selected) {
        attacks.columns.push_back(scheme->id());
        sim::ConcurrencyVerdicts v = sim::measureSchemeMulticore(
            cfg, attack_cores, /*detailed=*/true, tokenSeed);
        const bool c = sim::matchesConcurrencyProfile(
            v, scheme->declaredProfile());
        all_conform &= c;
        verdicts.push_back(v);
        conforms.push_back(c);
    }
    std::cout << std::left << std::setw(26) << "  scenario";
    for (const auto &v : verdicts)
        std::cout << std::setw(9) << v.scheme;
    std::cout << "\n";
    for (const sim::ConcurrencyScenarioInfo &s :
         sim::concurrencyScenarios()) {
        std::cout << "  " << std::left << std::setw(24) << s.key;
        for (std::size_t i = 0; i < verdicts.size(); ++i)
            std::cout << std::setw(9)
                      << (verdicts[i].*(s.measured) ? "C" : ".");
        std::cout << "\n";
        for (std::size_t i = 0; i < verdicts.size(); ++i) {
            sim::SweepCell cell;
            cell.bench = s.key;
            cell.column = attacks.columns[i];
            cell.scalars["caught"] = verdicts[i].*(s.measured) ? 1 : 0;
            cell.scalars["declared_caught"] =
                selected[i].first->declaredProfile().*(s.declared) ==
                        runtime::Expect::Caught
                    ? 1
                    : 0;
            cell.scalars["conforms"] = conforms[i] ? 1 : 0;
            attacks.cells.push_back(std::move(cell));
        }
    }
    for (std::size_t i = 0; i < verdicts.size(); ++i)
        if (!conforms[i])
            std::cout << "\nCONFORMANCE FAILURE: " << verdicts[i].scheme
                      << " cross-thread verdicts do not match its "
                      << "declared profile\n";

    std::vector<sim::SweepResults> sweeps;
    sweeps.push_back(std::move(scaling));
    sweeps.push_back(std::move(attacks));
    bench::writeResults(opt, "multicore", std::move(sweeps));
    return all_ok && all_conform ? 0 : 1;
}
