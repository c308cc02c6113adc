/**
 * @file
 * Machine-readable sweep results (`BENCH_<figure>.json`).
 *
 * Every figure harness records its sweeps here and serialises them
 * with util::JsonWriter. Schema (stable; documented in README.md):
 *
 *   {
 *     "schema_version": 1,
 *     "figure": "fig7",
 *     "kiloinsts": 1000, "seeds_per_cell": 2, "jobs": 8,
 *     "sweeps": [
 *       {
 *         "name": "overheads",
 *         "columns": ["ASan", ...],
 *         "rows": ["perlbench", ...],
 *         "cells": [
 *           { "bench": "perlbench", "column": "ASan",
 *             "cycles": 123, "ops": 456,
 *             // only for non-detailed runs ("fast-functional" or
 *             // "sampled"; sampled cells add "sampling_error_pct"):
 *             "exec_mode": "sampled", "sampling_error_pct": 2.1,
 *             "seed_cycles": [121, 125],
 *             "scalars": { "o3cpu.…": 1, "l1d.…": 2 } }, ... ],
 *         // a cell whose job(s) failed serialises as
 *         //   { "bench": ..., "column": ..., "error": "..." }
 *         // instead of aborting the figure.
 *         "baseline_cycles": { "perlbench": 100, ... },   // optional
 *         "wtd_ari_mean_pct": { "ASan": 40.1, ... },      // optional
 *         "geo_mean_pct": { "ASan": 33.0, ... }           // optional
 *       }, ... ]
 *   }
 *
 * "cycles"/"ops" are the seed-averaged values the printed tables use;
 * "seed_cycles" holds the raw per-seed cycle counts and "scalars" the
 * component counters summed across seeds.
 */

#ifndef REST_SIM_RESULTS_HH
#define REST_SIM_RESULTS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace rest::sim
{

/** One benchmark × configuration cell, aggregated over seeds. */
struct SweepCell
{
    std::string bench;
    std::string column;
    Cycles cycles = 0;          ///< seed-averaged, as printed
    std::uint64_t ops = 0;      ///< seed-averaged
    /** Execution mode the cell's jobs ran under; only serialised when
     *  not "detailed", so default output stays byte-identical. */
    std::string execMode = "detailed";
    /** Worst per-seed sampling error (sampled cells only). */
    double samplingErrorPct = 0.0;
    std::vector<Cycles> seedCycles;
    std::map<std::string, std::uint64_t> scalars; ///< summed over seeds
    /** Per-interval stat deltas (first seed's run); only serialised
     *  when non-empty, so default output stays byte-identical. */
    std::vector<stats::StatSnapshot> statSeries;

    /** False when any seed job failed; such cells serialise as
     *  {"error"} records. */
    bool ok = true;
    /** First failed seed's error (empty iff ok). */
    std::string error;
};

/** One named sweep: a rows × columns matrix of cells. */
struct SweepResults
{
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::string> rows;
    std::vector<SweepCell> cells;
    /** Plain-baseline cycles per row (empty if no baseline column). */
    std::map<std::string, Cycles> baselineCycles;
    /** Aggregate overheads per column vs the baseline (may be empty). */
    std::map<std::string, double> wtdAriMeanPct;
    std::map<std::string, double> geoMeanPct;
};

/** A whole results file: every sweep one harness invocation ran. */
struct ResultsFile
{
    std::string figure;
    std::uint64_t kiloInsts = 0;
    unsigned seedsPerCell = 0;
    unsigned jobs = 0;
    std::vector<SweepResults> sweeps;
};

/** Serialise to the schema above (deterministic byte-for-byte). */
void writeJson(const ResultsFile &results, std::ostream &os);

/**
 * Write to `path`; returns false (with a warning on stderr) if the
 * file cannot be opened — harnesses keep printing their tables.
 */
bool writeJsonFile(const ResultsFile &results, const std::string &path);

} // namespace rest::sim

#endif // REST_SIM_RESULTS_HH
