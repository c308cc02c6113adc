/**
 * @file
 * Exact outcomes of whole single-core runs through sim::System: cycles,
 * committed ops and a hash of the full dumpStats() text for every CPU
 * model (O3, in-order, fast-functional) under plain, asan, Secure Full
 * and Debug Full on two profiles; one sampled run; one traced run's
 * stat series; and one attack's violation record under detailed Debug.
 *
 * Any restructuring of how the machine is assembled or run must leave
 * every pinned value unchanged. A change that means to move a model
 * number updates the table and says why; a failing row prints its
 * replacement.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/attack_scenarios.hh"
#include "workload/spec_profiles.hh"

namespace rest::sim
{

namespace
{

/** 64-bit FNV-1a of a string. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

isa::Program
bench(const char *name, unsigned kinst = 20)
{
    auto p = workload::profileByName(name);
    p.targetKiloInsts = kinst;
    return workload::generate(p);
}

std::uint64_t
dumpHash(const System &system)
{
    std::ostringstream os;
    system.dumpStats(os);
    return fnv1a(os.str());
}

enum class Model { O3, InOrder, Fast };

const char *
modelName(Model m)
{
    switch (m) {
      case Model::O3: return "Model::O3";
      case Model::InOrder: return "Model::InOrder";
      case Model::Fast: return "Model::Fast";
    }
    return "?";
}

const char *
configName(ExpConfig c)
{
    switch (c) {
      case ExpConfig::Plain: return "ExpConfig::Plain";
      case ExpConfig::Asan: return "ExpConfig::Asan";
      case ExpConfig::RestSecureFull: return "ExpConfig::RestSecureFull";
      case ExpConfig::RestDebugFull: return "ExpConfig::RestDebugFull";
      default: return "?";
    }
}

struct Pin
{
    const char *bench;
    Model model;
    ExpConfig config;
    Cycles cycles;
    std::uint64_t ops;
    std::uint64_t dump;
};

// clang-format off
const Pin pins[] = {
    {"hmmer", Model::O3, ExpConfig::Plain, 27194, 18192, 0x4e94b4aa0b5bf46aull},
    {"hmmer", Model::O3, ExpConfig::Asan, 45791, 54428, 0x2c8c26ecedcc883aull},
    {"hmmer", Model::O3, ExpConfig::RestSecureFull, 28721, 18724, 0x9336f52f96ef4475ull},
    {"hmmer", Model::O3, ExpConfig::RestDebugFull, 61368, 18724, 0xde55527e929969beull},
    {"hmmer", Model::InOrder, ExpConfig::Plain, 118692, 18192, 0x10633b6d48583bdfull},
    {"hmmer", Model::InOrder, ExpConfig::Asan, 149943, 54428, 0x7a2041373c10bed3ull},
    {"hmmer", Model::InOrder, ExpConfig::RestSecureFull, 124251, 18724, 0x913286310759a080ull},
    {"hmmer", Model::InOrder, ExpConfig::RestDebugFull, 124251, 18724, 0x913286310759a080ull},
    {"hmmer", Model::Fast, ExpConfig::Plain, 18192, 18192, 0x2cde0c78b5e57879ull},
    {"hmmer", Model::Fast, ExpConfig::Asan, 54428, 54428, 0x5a04508bed868fdeull},
    {"hmmer", Model::Fast, ExpConfig::RestSecureFull, 18724, 18724, 0x944811548fc2544cull},
    {"hmmer", Model::Fast, ExpConfig::RestDebugFull, 18724, 18724, 0x944811548fc2544cull},
    {"gcc", Model::O3, ExpConfig::Plain, 27758, 17586, 0x65556159aa67b73eull},
    {"gcc", Model::O3, ExpConfig::Asan, 59915, 51910, 0xa28701a8d21c6d1eull},
    {"gcc", Model::O3, ExpConfig::RestSecureFull, 30519, 18310, 0x8dcf624ff40327f9ull},
    {"gcc", Model::O3, ExpConfig::RestDebugFull, 85224, 18310, 0x8723ff2681e9c75aull},
    {"gcc", Model::InOrder, ExpConfig::Plain, 116596, 17586, 0xf0ae49f8fe25badfull},
    {"gcc", Model::InOrder, ExpConfig::Asan, 206391, 51910, 0xd5091af93767f17aull},
    {"gcc", Model::InOrder, ExpConfig::RestSecureFull, 124691, 18310, 0xb5bfe9a6bfe1b9aaull},
    {"gcc", Model::InOrder, ExpConfig::RestDebugFull, 124691, 18310, 0xb5bfe9a6bfe1b9aaull},
    {"gcc", Model::Fast, ExpConfig::Plain, 17586, 17586, 0x28f98a0e8a982390ull},
    {"gcc", Model::Fast, ExpConfig::Asan, 51910, 51910, 0x392c39ca9096c149ull},
    {"gcc", Model::Fast, ExpConfig::RestSecureFull, 18310, 18310, 0xdf2ff31533f34fe9ull},
    {"gcc", Model::Fast, ExpConfig::RestDebugFull, 18310, 18310, 0xdf2ff31533f34fe9ull},
};
// clang-format on

} // namespace

TEST(SystemPin, EveryModelAndSchemeOnTwoProfiles)
{
    for (const Pin &pin : pins) {
        SystemConfig cfg = makeSystemConfig(pin.config);
        cfg.useInOrderCpu = pin.model == Model::InOrder;
        cfg.exec.fastFunctional = pin.model == Model::Fast;
        System system(bench(pin.bench), cfg);
        const SystemResult r = system.run();
        ASSERT_FALSE(r.faulted()) << pin.bench;
        const std::uint64_t dump = dumpHash(system);
        EXPECT_TRUE(r.cycles() == pin.cycles &&
                    r.run.committedOps == pin.ops && dump == pin.dump)
            << "    {\"" << pin.bench << "\", " << modelName(pin.model)
            << ", " << configName(pin.config) << ", " << r.cycles()
            << ", " << r.run.committedOps << ", 0x" << std::hex << dump
            << "ull},";
    }
}

TEST(SystemPin, SampledRun)
{
    SystemConfig cfg = makeSystemConfig(ExpConfig::RestSecureFull);
    cfg.exec.sampling.intervalOps = 100000;
    System system(bench("hmmer", 250), cfg);
    const SystemResult r = system.run();
    ASSERT_FALSE(r.faulted());
    ASSERT_TRUE(r.sampled);
    EXPECT_EQ(r.cycles(), 191010u);
    EXPECT_EQ(r.run.committedOps, 252916u);
    EXPECT_EQ(r.sampling.windows, 3u);
    EXPECT_EQ(r.sampling.fastForwardedOps, 216916u);
    EXPECT_EQ(dumpHash(system), 0x0be45de654704423ull)
        << std::hex << dumpHash(system);
}

TEST(SystemPin, TracedRunStatSeries)
{
    SystemConfig cfg = makeSystemConfig(ExpConfig::RestSecureFull);
    cfg.trace.statsEvery = 1000;
    System system(bench("hmmer"), cfg);
    const SystemResult r = system.run();
    ASSERT_FALSE(r.faulted());

    std::ostringstream series;
    for (const stats::StatSnapshot &snap : system.statSnapshots()) {
        series << snap.cycle << '\n';
        for (const auto &[key, delta] : snap.deltas)
            series << key << '=' << delta << '\n';
    }
    EXPECT_EQ(system.statSnapshots().size(), 29u);
    EXPECT_EQ(r.cycles(), 28721u);
    EXPECT_EQ(r.run.committedOps, 18724u);
    EXPECT_EQ(fnv1a(series.str()), 0xa49a34f9f1ed9887ull)
        << std::hex << fnv1a(series.str());
    // Tracing only observes: the same dump as the untraced run.
    EXPECT_EQ(dumpHash(system), 0x9336f52f96ef4475ull)
        << std::hex << dumpHash(system);
}

TEST(SystemPin, AttackUnderDetailedDebug)
{
    System system(workload::attacks::heartbleed(64, 256),
                  makeSystemConfig(ExpConfig::RestDebugFull));
    const SystemResult r = system.run();
    ASSERT_TRUE(r.faulted());
    const core::Violation &v = r.run.violation;
    EXPECT_EQ(v.kind, core::ViolationKind::TokenAccess);
    EXPECT_EQ(v.seq, 110u);
    EXPECT_EQ(v.pc, 0x60006cu);
    EXPECT_EQ(v.faultAddr, 0x20000080u);
    EXPECT_EQ(v.reportCycle, 1829u);
    EXPECT_EQ(r.cycles(), 1829u);
    EXPECT_EQ(r.run.committedOps, 111u);
}

} // namespace rest::sim
