/**
 * @file
 * The benchmark's three workloads and one measured pass over each.
 *
 *  - spec_detailed: the 12 SPEC-like profiles in detailed O3 mode under
 *    the Figure 7 configurations (plain, asan+elide+hoist+coalesce,
 *    REST Secure Full, REST Debug Full) on a thread pool. The timing
 *    core and the cache hierarchy do almost all of the host work.
 *  - detect_functional: the same profiles in fast-functional mode under
 *    those configurations plus mte and pauth, and the nine-scenario
 *    attack matrix under every registered backend. The emulator, the
 *    runtime allocators and the access policies do the work; the O3
 *    core does none.
 *  - server_multicore: the Zipf server mix on a 4-core MESI machine,
 *    detailed, hand-offs on, under the Figure 7 configurations, and
 *    the three concurrency attacks under every backend. The only
 *    workload on the coherence bus and the shared-L2 write sharing.
 *
 * The generator seed is the benchmark's --seed; the simulator sees
 * only the generated programs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "layer_probe.hh"
#include "sim/system.hh"
#include "spans.hh"
#include "workload/server_mix.hh"
#include "workload/spec_profiles.hh"

namespace perfbench
{

/** Workload sizes. */
struct Sizing
{
    /** spec_detailed kilo-ops per job: fig7's default, so its
     *  overheads are the Figure 7 numbers. */
    std::uint64_t detailedKiloInsts = 1000;
    /** detect_functional kilo-ops per job: long enough that set-up is
     *  a few percent of a pass. */
    std::uint64_t functionalKiloInsts = 3000;
    /** server_multicore requests per core. */
    std::uint64_t serverRequestsPerCore = 1024;
    /** Longest op trace the layer probe records per job. */
    std::uint64_t probeOpCap = 100000;

    /** The benchmark's own tests run at this size. */
    static Sizing tiny() { return {20, 40, 16, 4000}; }
};

/** One machine configuration a workload runs under. */
struct NamedConfig
{
    std::string key;
    rest::sim::SystemConfig cfg;
};

/** One simulated run: a sweep job, or one multicore machine. */
struct JobOutcome
{
    std::string program; ///< profile name, or "server_mix"
    std::string config;  ///< NamedConfig::key
    bool ok = false;
    std::string error;
    rest::Cycles cycles = 0;
    std::uint64_t ops = 0;
    std::uint64_t requests = 1;
    double hostSeconds = 0; ///< the whole job
    double runSeconds = 0;  ///< inside run()
    /** Component stats and run counters, summed over cores. */
    std::map<std::string, std::uint64_t> scalars;
};

/** An attack verdict checked against the backend's declaration. */
struct VerdictCheck
{
    std::string name; ///< "<backend>/<scenario>"
    bool ok = false;
};

struct PassResult
{
    double wallSeconds = 0;
    /** Wall time of the jobs alone, without the attack checks. */
    double jobsSeconds = 0;
    std::vector<JobOutcome> jobs;
    std::vector<VerdictCheck> verdicts;
    /** Broken simulator invariants (correctness, not op failures). */
    std::vector<std::string> invariantFailures;
};

struct Workload
{
    std::string name;
    std::vector<NamedConfig> configs;
    /** SPEC-like profiles; empty for the server workload. */
    std::vector<rest::workload::BenchProfile> profiles;
    rest::workload::ServerMixConfig mix;
    /** Host threads running the jobs. */
    unsigned workers = 1;
    bool attackMatrix = false;
    bool concurrencyAttacks = false;

    bool multicore() const { return profiles.empty(); }
};

const std::vector<std::string> &workloadNames();

/** The named workload at 'seed'; nullopt when the name is unknown. */
std::optional<Workload> makeWorkload(const std::string &name,
                                     std::uint64_t seed, unsigned workers,
                                     const Sizing &sizing);

/** One full pass over the workload, spans around each library call. */
PassResult runPass(const Workload &w, SpanRecorder &spans);

/** The traced layer decomposition of every job of the workload. */
void probeLayers(const Workload &w, LayerProbe &probe);

/** Weighted-mean simulated overhead of 'config' over plain, percent. */
double simOverheadPct(const PassResult &pass, const std::string &config);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
