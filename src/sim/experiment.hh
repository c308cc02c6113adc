/**
 * @file
 * Experiment harness: the paper's evaluated configurations as presets,
 * per-benchmark runs, and the aggregation formulas of §VI-B
 * (weighted arithmetic mean, footnote 5; geometric mean, footnote 6).
 */

#ifndef REST_SIM_EXPERIMENT_HH
#define REST_SIM_EXPERIMENT_HH

#include <map>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "workload/spec_profiles.hh"

namespace rest::sim
{

/** The named configurations of Figures 7 and 8. */
enum class ExpConfig
{
    Plain,
    Asan,
    RestDebugFull,
    RestSecureFull,
    PerfectHwFull,
    RestDebugHeap,
    RestSecureHeap,
    PerfectHwHeap,
};

/** Display name ("Secure Full", ...). */
const char *expConfigName(ExpConfig config);

/**
 * Build the SystemConfig for a named experiment configuration.
 * @param config which preset.
 * @param width token width (Figure 8 sweeps this; 64 B elsewhere).
 */
SystemConfig makeSystemConfig(ExpConfig config,
                              core::TokenWidth width =
                                  core::TokenWidth::Bytes64);

/** One benchmark × configuration measurement. */
struct Measurement
{
    std::string bench;
    /** Column label the run was given. */
    std::string label;
    std::uint64_t seed = 0;
    Cycles cycles = 0;
    std::uint64_t ops = 0;
    /** Execution mode the measurement ran under: "detailed" or
     *  "fast-functional" (ExecutionConfig::modeName()). */
    std::string execMode = "detailed";
    /** Component counters ("o3cpu.*", "l1d.*") snapshotted before the
     *  System is torn down; feeds the JSON results layer. */
    std::map<std::string, std::uint64_t> scalars;
    /** Periodic per-interval stat deltas (empty unless the run's
     *  SystemConfig enabled trace.statsEvery). */
    std::vector<stats::StatSnapshot> statSeries;
    SystemResult detail;
};

/**
 * Run one benchmark under one configuration: a preset from
 * makeSystemConfig() or any edit of one (Figure 3's cumulative
 * component stacks, the ablations). The execution mode is cfg.exec.
 * @param profile workload profile (generate() is called internally).
 * @param label column label recorded in the Measurement.
 */
Measurement runBench(const workload::BenchProfile &profile,
                     const SystemConfig &cfg, const std::string &label);

/** Per-benchmark overhead in percent relative to a plain run. */
double overheadPct(Cycles plain_cycles, Cycles scheme_cycles);

/**
 * Weighted arithmetic mean overhead (paper footnote 5): equivalent to
 * sum(scheme runtimes) / sum(plain runtimes) - 1, in percent.
 * Empty vectors yield 0.0 (an empty sweep has no overhead);
 * mismatched lengths are a caller bug and panic.
 */
double wtdAriMeanOverheadPct(const std::vector<Cycles> &plain,
                             const std::vector<Cycles> &scheme);

/**
 * Geometric mean overhead (paper footnote 6), in percent. Same
 * empty/mismatch behaviour as wtdAriMeanOverheadPct().
 */
double geoMeanOverheadPct(const std::vector<Cycles> &plain,
                          const std::vector<Cycles> &scheme);

} // namespace rest::sim

#endif // REST_SIM_EXPERIMENT_HH
