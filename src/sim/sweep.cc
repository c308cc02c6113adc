#include "sim/sweep.hh"

#include <algorithm>

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
    Measurement m = runBench(job.profile, job.cfg, job.label);
    REST_DPRINTF(trace::Flag::Sweep, index, "sweep",
                 "job ", index, " done bench=", m.bench, " label=",
                 m.label, " cycles=", m.cycles);
    return m;
}

} // namespace

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
