/**
 * @file
 * Token-width tuning (paper §III-B "Modifying Token Width", §V-C,
 * Fig. 8): narrower tokens shrink the false-negative alignment pad —
 * at essentially unchanged performance — while wider tokens maximise
 * the brute-force guessing margin.
 */

#include <iostream>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/attack_scenarios.hh"
#include "workload/spec_profiles.hh"

using namespace rest;

int
main()
{
    std::cout << "Token width vs. detection granularity\n"
              << "(8-byte overflow past a 16-byte stack buffer)\n\n";

    for (auto width : {core::TokenWidth::Bytes16,
                       core::TokenWidth::Bytes32,
                       core::TokenWidth::Bytes64}) {
        sim::System system(
            workload::attacks::stackPadOverflow(16, 8),
            sim::makeSystemConfig(sim::ExpConfig::RestSecureFull,
                                  width));
        auto r = system.run();
        std::cout << "  " << core::tokenBytes(width)
                  << "B tokens: detected=" << r.faulted()
                  << (r.faulted()
                          ? "  (pad closed, overflow caught)"
                          : "  (landed in the alignment pad: the "
                            "Sec. V-C false negative)")
                  << "\n";
    }

    std::cout << "\nToken width vs. performance (gobmk-like)\n";
    auto profile = workload::profileByName("gobmk");
    profile.targetKiloInsts = 300;
    auto plain = sim::runBench(
        profile, sim::makeSystemConfig(sim::ExpConfig::Plain), "plain");
    for (auto width : {core::TokenWidth::Bytes16,
                       core::TokenWidth::Bytes32,
                       core::TokenWidth::Bytes64}) {
        auto m = sim::runBench(
            profile,
            sim::makeSystemConfig(sim::ExpConfig::RestSecureFull, width),
            "REST secure");
        std::cout << "  " << core::tokenBytes(width) << "B tokens: "
                  << sim::overheadPct(plain.cycles, m.cycles)
                  << "% overhead, " << m.detail.armsExecuted
                  << " arms executed\n";
    }
    std::cout << "\nPaper Fig. 8's conclusion: pick robustness freely;"
              << " width barely moves performance.\n";
    return 0;
}
