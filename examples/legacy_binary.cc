/**
 * @file
 * Legacy-binary protection (paper §IV-A, "one key advantage"):
 * because REST checks happen in hardware, heap safety needs no
 * recompilation — only the REST allocator swapped in underneath
 * (LD_PRELOAD in real deployments).
 *
 * This example builds ONE program and never re-instruments it: the
 * same un-instrumented code is run (a) with the stock allocator and
 * (b) with the REST allocator linked in. The overflow is caught in
 * case (b) purely by the allocator's token redzones + hardware.
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
    std::cout << "Legacy binary (no recompilation) heap protection\n\n";

    // The "legacy binary": note both configs below use schemes with
    // no code instrumentation at all -- plain and restHeap share the
    // exact same program text; only the allocator differs.
    {
        sim::System system(
            workload::attacks::heapOverflowWrite(64, 32),
            sim::makeSystemConfig(sim::ExpConfig::Plain));
        auto r = system.run();
        std::cout << "[stock allocator] faulted=" << r.faulted()
                  << "  program insts="
                  << system.program().numInsts() << "\n";
    }
    {
        sim::System system(
            workload::attacks::heapOverflowWrite(64, 32),
            sim::makeSystemConfig(sim::ExpConfig::RestSecureHeap));
        auto r = system.run();
        std::cout << "[REST allocator]  faulted=" << r.faulted()
                  << "  program insts="
                  << system.program().numInsts();
        if (r.faulted())
            std::cout << "  -> " << r.run.violation.toString();
        std::cout << "\n\n";
    }

    // And the cost of that protection on a real workload, still with
    // zero recompilation:
    auto profile = workload::profileByName("hmmer");
    profile.targetKiloInsts = 300;
    auto plain = sim::runBench(
        profile, sim::makeSystemConfig(sim::ExpConfig::Plain), "plain");
    auto rest_run = sim::runBench(
        profile, sim::makeSystemConfig(sim::ExpConfig::RestSecureHeap),
        "REST heap");
    std::cout << "hmmer-like workload, heap-only protection:\n"
              << "  plain cycles: " << plain.cycles << "\n"
              << "  REST  cycles: " << rest_run.cycles << "  ("
              << sim::overheadPct(plain.cycles, rest_run.cycles)
              << "% overhead)\n";
    return 0;
}
