#include "sim/sweep.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/trace.hh"

namespace rest::sim
{

namespace
{

Measurement
runJob(const SweepJob &job, std::size_t index)
{
    REST_DPRINTF(trace::Flag::Sweep, index, "sweep",
                 "job ", index, " start bench=", job.profile.name);
    Measurement m;
    if (job.useCustomConfig) {
        SystemConfig cfg = job.customConfig;
        // A non-default job-level mode wins; the default leaves
        // whatever the custom config already carries untouched.
        if (!job.exec.detailed())
            cfg.exec = job.exec;
        m = runCustom(job.profile, cfg,
                      job.label.empty() ? std::string("custom")
                                        : job.label);
    } else {
        m = runBench(job.profile, job.config, job.width, job.inorder,
                     job.exec);
        if (!job.label.empty())
            m.label = job.label;
    }
    REST_DPRINTF(trace::Flag::Sweep, index, "sweep",
                 "job ", index, " done bench=", m.bench, " label=",
                 m.label, " cycles=", m.cycles);
    return m;
}

} // namespace

SweepJob
makePresetJob(workload::BenchProfile profile, ExpConfig config,
              core::TokenWidth width, bool inorder)
{
    SweepJob job;
    job.profile = std::move(profile);
    job.config = config;
    job.width = width;
    job.inorder = inorder;
    return job;
}

SweepJob
makeCustomJob(workload::BenchProfile profile, const SystemConfig &cfg,
              std::string label)
{
    SweepJob job;
    job.profile = std::move(profile);
    job.useCustomConfig = true;
    job.customConfig = cfg;
    job.label = std::move(label);
    return job;
}

SweepRunner::SweepRunner(unsigned num_threads)
    : num_threads_(std::max(1u, num_threads))
{}

std::vector<JobResult>
SweepRunner::run(const std::vector<SweepJob> &jobs) const
{
    std::vector<JobResult> results(jobs.size());
    auto exec = [&](std::size_t i) {
        JobResult &r = results[i];
        try {
            // rest_fatal inside the job (workload generators, the
            // instrumentation verifier, the system) becomes
            // util::FatalError here instead of exiting the process.
            util::ScopedFatalThrow fatal_throws;
            r.measurement = runJob(jobs[i], i);
            r.ok = true;
            return;
        } catch (const std::exception &e) {
            r.error = e.what();
        } catch (...) {
            r.error = "unknown exception";
        }
        rest_warn("sweep job ", i, " (", jobs[i].profile.name,
                  ") failed: ", r.error);
    };

    if (num_threads_ <= 1 || jobs.size() <= 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            exec(i);
    } else {
        util::ThreadPool pool(
            std::min<std::size_t>(num_threads_, jobs.size()));
        for (std::size_t i = 0; i < jobs.size(); ++i)
            pool.submit([&exec, i] { exec(i); });
        pool.wait();
    }
    return results;
}

} // namespace rest::sim
