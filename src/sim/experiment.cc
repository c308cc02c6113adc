#include "sim/experiment.hh"

#include <cmath>

#include "isa/opcode.hh"
#include "util/logging.hh"

namespace rest::sim
{

const char *
expConfigName(ExpConfig config)
{
    switch (config) {
      case ExpConfig::Plain: return "Plain";
      case ExpConfig::Asan: return "ASan";
      case ExpConfig::RestDebugFull: return "Debug Full";
      case ExpConfig::RestSecureFull: return "Secure Full";
      case ExpConfig::PerfectHwFull: return "PerfectHW Full";
      case ExpConfig::RestDebugHeap: return "Debug Heap";
      case ExpConfig::RestSecureHeap: return "Secure Heap";
      case ExpConfig::PerfectHwHeap: return "PerfectHW Heap";
      default: return "<bad>";
    }
}

SystemConfig
makeSystemConfig(ExpConfig config, core::TokenWidth width)
{
    SystemConfig cfg;
    cfg.tokenWidth = width;
    using runtime::SchemeConfig;

    switch (config) {
      case ExpConfig::Plain:
        cfg.scheme = SchemeConfig::plain();
        break;
      case ExpConfig::Asan:
        cfg.scheme = SchemeConfig::asanFull();
        break;
      case ExpConfig::RestDebugFull:
        cfg.scheme = SchemeConfig::restFull();
        cfg.mode = core::RestMode::Debug;
        break;
      case ExpConfig::RestSecureFull:
        cfg.scheme = SchemeConfig::restFull();
        break;
      case ExpConfig::PerfectHwFull:
        cfg.scheme = SchemeConfig::restFull();
        cfg.scheme.perfectHw = true;
        break;
      case ExpConfig::RestDebugHeap:
        cfg.scheme = SchemeConfig::restHeap();
        cfg.mode = core::RestMode::Debug;
        break;
      case ExpConfig::RestSecureHeap:
        cfg.scheme = SchemeConfig::restHeap();
        break;
      case ExpConfig::PerfectHwHeap:
        cfg.scheme = SchemeConfig::restHeap();
        cfg.scheme.perfectHw = true;
        break;
    }
    return cfg;
}

Measurement
runBench(const workload::BenchProfile &profile, const SystemConfig &cfg,
         const std::string &label)
{
    System system(workload::generate(profile), cfg);
    SystemResult result = system.run();
    // A fatal, not an assert: inside a sweep it fails this one job
    // (ScopedFatalThrow) instead of aborting the whole figure run.
    if (result.faulted())
        rest_fatal("benign benchmark ", profile.name, " faulted under ",
                   label, ": ", result.run.violation.toString());

    Measurement m;
    m.bench = profile.name;
    m.label = label;
    m.seed = profile.seed;
    m.cycles = result.cycles();
    m.ops = result.run.committedOps;
    m.execMode = cfg.exec.modeName();
    m.detail = result;
    auto snap = [&m](const std::string &name, std::uint64_t v) {
        m.scalars.emplace(name, v);
    };
    system.cpuStats().forEachScalar(snap);
    system.dcache().statGroup().forEachScalar(snap);
    system.l2cache().statGroup().forEachScalar(snap);
    const auto &instr = result.instrumentation;
    snap("instr.access_checks_inserted", instr.accessChecksInserted);
    snap("instr.access_checks_elided", instr.accessChecksElided);
    snap("instr.access_checks_hoisted", instr.accessChecksHoisted);
    snap("instr.access_checks_coalesced", instr.accessChecksCoalesced);
    snap("instr.access_check_ops_executed",
         result.run.opsBySource[
             static_cast<unsigned>(isa::OpSource::AccessCheck)]);
    snap("instr.arms_inserted", instr.armsInserted);
    snap("instr.disarms_inserted", instr.disarmsInserted);
    snap("instr.stack_poison_stores", instr.stackPoisonStores);
    snap("instr.pad_zero_stores", instr.padZeroStores);
    snap("instr.frame_bytes", instr.frameBytesTotal);
    if (cfg.trace.statsEvery != 0)
        m.statSeries = system.statSnapshots();
    return m;
}

double
overheadPct(Cycles plain_cycles, Cycles scheme_cycles)
{
    rest_assert(plain_cycles > 0, "plain run has zero cycles");
    return 100.0 * (static_cast<double>(scheme_cycles) /
                        static_cast<double>(plain_cycles) - 1.0);
}

double
wtdAriMeanOverheadPct(const std::vector<Cycles> &plain,
                      const std::vector<Cycles> &scheme)
{
    rest_assert(plain.size() == scheme.size(),
                "mismatched overhead vectors");
    if (plain.empty())
        return 0.0;
    double sum_plain = 0, sum_scheme = 0;
    for (std::size_t i = 0; i < plain.size(); ++i) {
        sum_plain += static_cast<double>(plain[i]);
        sum_scheme += static_cast<double>(scheme[i]);
    }
    rest_assert(sum_plain > 0, "plain runs have zero total cycles");
    return 100.0 * (sum_scheme / sum_plain - 1.0);
}

double
geoMeanOverheadPct(const std::vector<Cycles> &plain,
                   const std::vector<Cycles> &scheme)
{
    rest_assert(plain.size() == scheme.size(),
                "mismatched overhead vectors");
    if (plain.empty())
        return 0.0;
    double log_sum = 0;
    for (std::size_t i = 0; i < plain.size(); ++i) {
        rest_assert(plain[i] > 0 && scheme[i] > 0,
                    "zero-cycle run in geometric mean");
        log_sum += std::log(static_cast<double>(scheme[i]) /
                            static_cast<double>(plain[i]));
    }
    return 100.0 * (std::exp(log_sum /
                             static_cast<double>(plain.size())) - 1.0);
}

} // namespace rest::sim
