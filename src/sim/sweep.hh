/**
 * @file
 * SweepRunner: a parallel experiment-sweep engine.
 *
 * A sweep is a list of SweepJobs — each one a pure function of
 * (profile, configuration, token width, seed). The runner executes the
 * jobs on a thread pool (util::ThreadPool), one sim::System per job,
 * and returns per-job JobResults *in submission order*, so successful
 * measurements are bit-identical to running the same jobs serially
 * through runBench()/runCustom() regardless of thread count or
 * scheduling (tests/sim/sweep_test.cc proves the invariance).
 *
 * A job that throws — including a rest_fatal from a workload
 * generator, the instrumentation verifier or the system itself,
 * converted to util::FatalError by a ScopedFatalThrow guard around
 * the job — is recorded as a failed JobResult instead of killing the
 * sweep (DESIGN.md §10).
 */

#ifndef REST_SIM_SWEEP_HH
#define REST_SIM_SWEEP_HH

#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace rest::sim
{

/** One cell of a sweep: a benchmark run under one configuration. */
struct SweepJob
{
    workload::BenchProfile profile;

    // Preset path (the common case).
    ExpConfig config = ExpConfig::Plain;
    core::TokenWidth width = core::TokenWidth::Bytes64;
    bool inorder = false;

    /** When set, run customConfig via runCustom() instead of the
     *  preset — Figure 3 levels and the ablations need this. */
    bool useCustomConfig = false;
    SystemConfig customConfig;

    /** Execution mode for this cell. Applied to preset jobs directly;
     *  for custom jobs a non-default value overrides
     *  customConfig.exec (the default leaves customConfig alone). */
    ExecutionConfig exec;

    /** Column label recorded in the Measurement; defaults to
     *  expConfigName(config) when empty. */
    std::string label;
};

/** Convenience builders. */
SweepJob makePresetJob(workload::BenchProfile profile, ExpConfig config,
                       core::TokenWidth width =
                           core::TokenWidth::Bytes64,
                       bool inorder = false);
SweepJob makeCustomJob(workload::BenchProfile profile,
                       const SystemConfig &cfg, std::string label);

/** The per-job outcome of a sweep. */
struct JobResult
{
    bool ok = false;
    /** Empty iff ok. */
    std::string error;
    /** Valid iff ok. */
    Measurement measurement;
};

class SweepRunner
{
  public:
    /**
     * @param num_threads worker threads; 0 or 1 runs the jobs inline
     *        on the calling thread (no pool is created).
     */
    explicit SweepRunner(unsigned num_threads = 1);

    unsigned numThreads() const { return num_threads_; }

    /**
     * Run every job; the result vector is indexed like `jobs`
     * (submission order), independent of execution interleaving. Never
     * throws for job-level failures — inspect JobResult::ok.
     */
    std::vector<JobResult> run(const std::vector<SweepJob> &jobs) const;

  private:
    unsigned num_threads_;
};

} // namespace rest::sim

#endif // REST_SIM_SWEEP_HH
