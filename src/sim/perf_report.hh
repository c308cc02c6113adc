/**
 * @file
 * Perf-trajectory regression reports (DESIGN.md §11).
 *
 * PR 6 committed a reference BENCH_fig7.json whose "perf" block
 * records simulator throughput (KIPS) per execution mode. This module
 * turns that trajectory into a guarded artifact: load the committed
 * baseline, compare a fresh probe (or another results file) against
 * it, and emit a per-mode verdict table — pct delta against a
 * configurable regression threshold, plus a floor check on the
 * fast-functional speedup (the ≥10× claim CI asserts).
 *
 * The bench/perf_report tool is the CLI; the library is separated so
 * tests can exercise the verdict logic on synthetic records.
 */

#ifndef REST_SIM_PERF_REPORT_HH
#define REST_SIM_PERF_REPORT_HH

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/results.hh"

namespace rest::sim
{

/** A results file's identity plus its perf block. */
struct PerfBaseline
{
    std::string path;
    std::string figure;
    std::uint64_t kiloInsts = 0;
    PerfRecord perf;
};

/**
 * Load the "perf" block out of a BENCH_*.json results file. nullopt —
 * with a warning — when the file is missing/malformed or has no valid
 * perf block (harness ran without --perf).
 */
std::optional<PerfBaseline>
loadPerfBaseline(const std::string &path);

/** One mode's baseline-vs-current comparison. */
struct PerfDelta
{
    std::string mode; ///< "detailed", "fast-functional", "sampled"
    double baselineKips = 0.0;
    double currentKips = 0.0;
    /** (current - baseline) / baseline * 100; negative = slower. */
    double deltaPct = 0.0;
    /** deltaPct below -threshold. */
    bool regressed = false;
};

/** The full regression verdict. */
struct PerfReport
{
    double thresholdPct = 0.0;
    std::vector<PerfDelta> rows;

    /** The ≥N× fast-functional speedup floor verdict (checked on both
     *  sides so a stale baseline is caught too). */
    double speedupFloor = 0.0;
    double baselineSpeedupFast = 0.0;
    double currentSpeedupFast = 0.0;
    bool baselineFloorMet = true;
    bool currentFloorMet = true;

    bool
    anyRegression() const
    {
        for (const auto &row : rows)
            if (row.regressed)
                return true;
        return !baselineFloorMet || !currentFloorMet;
    }
};

/**
 * Compare `current` against `baseline`, mode by mode. Modes absent
 * from either side (zero KIPS) are skipped rather than reported as
 * regressions.
 * @param threshold_pct regression threshold: a mode whose KIPS fell by
 *        more than this percentage is flagged.
 * @param speedup_floor minimum fast-functional speedup both records
 *        must show (0 disables the floor check).
 */
PerfReport comparePerf(const PerfRecord &baseline,
                       const PerfRecord &current, double threshold_pct,
                       double speedup_floor);

/**
 * Baseline-only verdict (no fresh probe): checks the committed
 * trajectory's speedup floor, with an empty delta table.
 */
PerfReport checkBaseline(const PerfRecord &baseline,
                         double speedup_floor);

/** Print the verdict table (deterministic layout). */
void printPerfReport(const PerfReport &report, std::ostream &os);

} // namespace rest::sim

#endif // REST_SIM_PERF_REPORT_HH
