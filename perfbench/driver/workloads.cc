#include "workloads.hh"

#include <limits>
#include <memory>

#include "isa/opcode.hh"
#include "runtime/protection_scheme.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "sim/scheme_matrix.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

using namespace rest;

namespace
{

/** Figure 7's plain, ASanOpt, SecureFull and DebugFull columns. */
std::vector<NamedConfig>
fig7Configs()
{
    using sim::ExpConfig;
    sim::SystemConfig asanopt = sim::makeSystemConfig(ExpConfig::Asan);
    asanopt.scheme.elideRedundantChecks = true;
    asanopt.scheme.hoistLoopChecks = true;
    asanopt.scheme.coalesceChecks = true;
    return {
        {"plain", sim::makeSystemConfig(ExpConfig::Plain)},
        {"asanopt", asanopt},
        {"secure", sim::makeSystemConfig(ExpConfig::RestSecureFull)},
        {"debug", sim::makeSystemConfig(ExpConfig::RestDebugFull)},
    };
}

NamedConfig
backendConfig(const char *id)
{
    sim::SystemConfig cfg;
    cfg.scheme = runtime::findScheme(id)->baseConfig();
    return {id, cfg};
}

/** Run counters every job reports, whatever machine ran it. */
void
addRunCounters(std::map<std::string, std::uint64_t> &s,
               const cpu::RunResult &run)
{
    using isa::OpSource;
    auto by = [&run](OpSource src) {
        return run.opsBySource[static_cast<unsigned>(src)];
    };
    s["ops.program"] += by(OpSource::Program);
    s["ops.access_check"] += by(OpSource::AccessCheck);
    s["ops.stack_setup"] += by(OpSource::StackSetup);
    s["ops.allocator"] += by(OpSource::Allocator);
    s["ops.interceptor"] += by(OpSource::Interceptor);
}

void
addInstrumentation(std::map<std::string, std::uint64_t> &s,
                   const runtime::InstrumentationSummary &instr)
{
    s["instr.access_checks_inserted"] += instr.accessChecksInserted;
    s["instr.access_checks_elided"] += instr.accessChecksElided;
    s["instr.access_checks_hoisted"] += instr.accessChecksHoisted;
    s["instr.access_checks_coalesced"] += instr.accessChecksCoalesced;
    s["instr.arms_inserted"] += instr.armsInserted;
    s["instr.disarms_inserted"] += instr.disarmsInserted;
}

/**
 * One sweep job: generate, build and run a single-core machine. A
 * benign program that faults, or a rest_fatal while building, fails
 * this job only.
 */
void
runSweepJob(const workload::BenchProfile &profile, const NamedConfig &c,
            JobOutcome &j)
{
    j.program = profile.name;
    j.config = c.key;
    const auto t0 = Clock::now();
    try {
        util::ScopedFatalThrow fatal_throws;
        auto sys = std::make_unique<sim::System>(workload::generate(profile),
                                                 c.cfg);
        const auto r0 = Clock::now();
        const sim::SystemResult res = sys->run();
        j.runSeconds = secondsSince(r0);

        j.ok = !res.faulted();
        if (!j.ok)
            j.error = "benign program faulted: " +
                      res.run.violation.toString();
        j.cycles = res.cycles();
        j.ops = res.run.committedOps;
        auto add = [&j](const std::string &name, std::uint64_t v) {
            j.scalars[name] += v;
        };
        sys->cpuStats().forEachScalar(add);
        sys->dcache().statGroup().forEachScalar(add);
        sys->l2cache().statGroup().forEachScalar(add);
        addRunCounters(j.scalars, res.run);
        addInstrumentation(j.scalars, res.instrumentation);
        j.scalars["instr.access_check_ops_executed"] =
            j.scalars["ops.access_check"];
        j.scalars["core.arms"] = res.armsExecuted;
        j.scalars["core.disarms"] = res.disarmsExecuted;
        j.scalars["runtime.malloc_calls"] = res.mallocCalls;
        j.scalars["runtime.free_calls"] = res.freeCalls;
    } catch (const std::exception &e) {
        j.ok = false;
        j.error = e.what();
    }
    j.hostSeconds = secondsSince(t0);
}

void
runSweep(const Workload &w, SpanRecorder &spans, PassResult &pass)
{
    // Results land by submission index, so job order (and the digest)
    // does not depend on which worker ran what.
    pass.jobs.resize(w.profiles.size() * w.configs.size());
    {
        ScopedSpan span(spans, "sim.sweep");
        util::ThreadPool pool(w.workers);
        std::size_t i = 0;
        for (const workload::BenchProfile &p : w.profiles)
            for (const NamedConfig &c : w.configs) {
                JobOutcome *j = &pass.jobs[i++];
                pool.submit([&p, &c, j] { runSweepJob(p, c, *j); });
            }
        pool.wait();
    }

    // Secure and debug differ only in reported precision when no
    // timing model runs: their fast-functional runs retire the same
    // ops.
    if (w.configs.front().cfg.exec.fastFunctional) {
        std::map<std::string, std::uint64_t> secure_ops;
        for (const JobOutcome &j : pass.jobs)
            if (j.config == "secure")
                secure_ops[j.program] = j.ops;
        for (const JobOutcome &j : pass.jobs)
            if (j.config == "debug" && j.ops != secure_ops[j.program])
                pass.invariantFailures.push_back(
                    j.program + ": fast-functional debug retired " +
                    std::to_string(j.ops) + " ops, secure " +
                    std::to_string(secure_ops[j.program]));
    }
}

void
runServer(const Workload &w, SpanRecorder &spans, PassResult &pass)
{
    for (const NamedConfig &c : w.configs) {
        JobOutcome j;
        j.program = "server_mix";
        j.config = c.key;
        j.requests = w.mix.cores * w.mix.requestsPerCore;

        const auto t0 = Clock::now();
        std::vector<isa::Program> programs;
        {
            ScopedSpan span(spans, "workload.generate");
            programs = workload::serverMix(w.mix);
        }
        sim::MultiCoreConfig mc;
        mc.base = c.cfg;
        mc.cores = w.mix.cores;
        std::unique_ptr<sim::MultiCoreSystem> sys;
        {
            ScopedSpan span(spans, "sim.build");
            sys = std::make_unique<sim::MultiCoreSystem>(
                std::move(programs), mc);
        }
        sim::MultiCoreResult res;
        {
            ScopedSpan span(spans, "sim.run");
            const auto r0 = Clock::now();
            res = sys->run();
            j.runSeconds = secondsSince(r0);
        }

        j.ok = !res.faulted();
        if (!j.ok)
            j.error = "benign server mix faulted on core " +
                      std::to_string(res.faultCore) + ": " +
                      res.violation().toString();
        j.cycles = res.cycles;
        j.ops = res.committedOps;
        auto add = [&j](const std::string &name, std::uint64_t v) {
            j.scalars[name] += v;
        };
        for (unsigned core = 0; core < mc.cores; ++core) {
            const std::string prefix = "core" + std::to_string(core) + ".";
            j.scalars[prefix + "cycles"] = res.cores[core].cycles;
            j.scalars[prefix + "ops"] = res.cores[core].committedOps;
            sys->cpuStats(core).forEachScalar(add);
            sys->dcache(core).statGroup().forEachScalar(add);
            addRunCounters(j.scalars, res.cores[core]);
            addInstrumentation(j.scalars, res.instrumentation[core]);
        }
        sys->l2cache().statGroup().forEachScalar(add);
        if (sys->bus())
            sys->bus()->statGroup().forEachScalar(add);
        j.scalars["instr.access_check_ops_executed"] =
            j.scalars["ops.access_check"];
        j.scalars["core.arms"] = res.armsExecuted;
        j.scalars["core.disarms"] = res.disarmsExecuted;
        j.scalars["runtime.malloc_calls"] = res.mallocCalls;
        j.scalars["runtime.free_calls"] = res.freeCalls;

        sys.reset();
        j.hostSeconds = secondsSince(t0);
        pass.jobs.push_back(std::move(j));
    }
}

void
runAttackMatrix(SpanRecorder &spans, PassResult &pass)
{
    ScopedSpan span(spans, "sim.attack_matrix");
    for (const runtime::ProtectionScheme *ps : runtime::allSchemes()) {
        const sim::SchemeVerdicts v = sim::measureScheme(ps->baseConfig());
        const runtime::DetectionProfile declared = ps->declaredProfile();
        for (const sim::ScenarioInfo &s : sim::attackScenarios())
            pass.verdicts.push_back(
                {std::string(ps->id()) + "/" + s.key,
                 sim::verdictMatches(declared.*(s.declared),
                                     v.*(s.measured))});
    }
}

void
runConcurrencyAttacks(const Workload &w, SpanRecorder &spans,
                      PassResult &pass)
{
    ScopedSpan span(spans, "sim.concurrency_attacks");
    for (const runtime::ProtectionScheme *ps : runtime::allSchemes()) {
        const sim::ConcurrencyVerdicts v = sim::measureSchemeMulticore(
            ps->baseConfig(), w.mix.cores, /*detailed=*/true);
        const runtime::DetectionProfile declared = ps->declaredProfile();
        for (const sim::ConcurrencyScenarioInfo &s :
             sim::concurrencyScenarios())
            pass.verdicts.push_back(
                {std::string(ps->id()) + "/" + s.key,
                 sim::verdictMatches(declared.*(s.declared),
                                     v.*(s.measured))});
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "spec_detailed", "detect_functional", "server_multicore"};
    return names;
}

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, unsigned workers,
             const Sizing &sizing)
{
    Workload w;
    w.name = name;
    w.workers = workers;
    w.configs = fig7Configs();
    if (name == "spec_detailed" || name == "detect_functional") {
        const bool functional = name == "detect_functional";
        if (functional) {
            w.configs.push_back(backendConfig("mte"));
            w.configs.push_back(backendConfig("pauth"));
            for (NamedConfig &c : w.configs)
                c.cfg.exec.fastFunctional = true;
            w.attackMatrix = true;
        }
        w.profiles = workload::specSuite();
        for (workload::BenchProfile &p : w.profiles) {
            p.seed = seed;
            p.targetKiloInsts = functional ? sizing.functionalKiloInsts
                                           : sizing.detailedKiloInsts;
        }
    } else if (name == "server_multicore") {
        w.mix.cores = 4;
        w.mix.requestsPerCore = sizing.serverRequestsPerCore;
        w.mix.seed = seed;
        w.concurrencyAttacks = true;
        // The multicore machine runs its cores on one host thread.
        w.workers = 1;
    } else {
        return std::nullopt;
    }
    return w;
}

PassResult
runPass(const Workload &w, SpanRecorder &spans)
{
    PassResult pass;
    const auto t0 = Clock::now();
    if (w.multicore())
        runServer(w, spans, pass);
    else
        runSweep(w, spans, pass);
    pass.jobsSeconds = secondsSince(t0);
    if (w.attackMatrix)
        runAttackMatrix(spans, pass);
    if (w.concurrencyAttacks)
        runConcurrencyAttacks(w, spans, pass);
    pass.wallSeconds = secondsSince(t0);
    return pass;
}

void
probeLayers(const Workload &w, LayerProbe &probe)
{
    ScopedSpan root(probe.spans, "bench.probe");
    for (const NamedConfig &c : w.configs) {
        if (w.multicore()) {
            std::vector<isa::Program> programs;
            {
                ProbeStep s(probe, "workload.generate", probe.generateS);
                programs = workload::serverMix(w.mix);
            }
            probeStaticLayers(probe, programs, c.cfg);
            sim::MultiCoreConfig mc;
            mc.base = c.cfg;
            mc.cores = w.mix.cores;
            std::unique_ptr<sim::MultiCoreSystem> sys;
            {
                ProbeStep s(probe, "sim.build", probe.buildS);
                sys = std::make_unique<sim::MultiCoreSystem>(
                    std::move(programs), mc);
            }
            std::vector<sim::Emulator *> emulators;
            for (unsigned core = 0; core < mc.cores; ++core)
                emulators.push_back(&sys->emulator(core));
            replayTrace(probe, recordTrace(probe, emulators, mc.quantumOps),
                        c.cfg);
        } else {
            for (const workload::BenchProfile &p : w.profiles) {
                std::vector<isa::Program> programs(1);
                {
                    ProbeStep s(probe, "workload.generate",
                                probe.generateS);
                    programs[0] = workload::generate(p);
                }
                probeStaticLayers(probe, programs, c.cfg);
                std::unique_ptr<sim::System> sys;
                {
                    ProbeStep s(probe, "sim.build", probe.buildS);
                    sys = std::make_unique<sim::System>(programs[0], c.cfg);
                }
                replayTrace(probe,
                            recordTrace(probe, {&sys->emulator()},
                                        probe.opCap),
                            c.cfg);
            }
        }
    }
}

double
simOverheadPct(const PassResult &pass, const std::string &config)
{
    std::map<std::string, Cycles> plain;
    for (const JobOutcome &j : pass.jobs)
        if (j.ok && j.config == "plain")
            plain[j.program] = j.cycles;
    std::vector<Cycles> base, scheme;
    for (const JobOutcome &j : pass.jobs) {
        if (!j.ok || j.config != config || !plain.count(j.program))
            continue;
        base.push_back(plain[j.program]);
        scheme.push_back(j.cycles);
    }
    // Failed jobs already fail the run; the overhead is then undefined.
    return base.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : sim::wtdAriMeanOverheadPct(base, scheme);
}

} // namespace perfbench
