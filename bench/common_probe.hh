/**
 * @file
 * Empirical probes backing the REST row of the Table III harness:
 * each claim the paper makes about REST's protection class is checked
 * against the living implementation.
 */

#ifndef REST_BENCH_COMMON_PROBE_HH
#define REST_BENCH_COMMON_PROBE_HH

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/attack_scenarios.hh"

namespace rest::probe
{

struct Results
{
    bool linearCaught = false;
    bool targetedMissed = false;
    bool uafCaught = false;
    bool uafAfterRecycleMissed = false;
    bool usesShadowSpace = true;
    bool composable = false;

    bool spatialLinear = false;
    bool temporalUntilRealloc = false;

    bool
    allConsistent() const
    {
        return spatialLinear && temporalUntilRealloc &&
            !usesShadowSpace && composable;
    }
};

/** Run all probes against the REST implementation. */
inline Results
probeRest()
{
    Results res;
    auto heap_cfg = sim::makeSystemConfig(sim::ExpConfig::RestSecureHeap);

    { // Linear overflow: caught.
        sim::System s(workload::attacks::heapOverflowWrite(64, 32),
                      heap_cfg);
        res.linearCaught = s.run().faulted();
    }
    { // Targeted jump from one payload clean over the redzones into
      // another's: missed (by design of tripwires; Table III "Linear").
        sim::System s(workload::attacks::pointerDiffJump(64, 64),
                      heap_cfg);
        res.targetedMissed = !s.run().faulted();
    }
    { // UAF while quarantined: caught.
        sim::System s(workload::attacks::useAfterFree(96), heap_cfg);
        res.uafCaught = s.run().faulted();
    }
    { // UAF after the quarantine recycled the chunk: missed
      // (Table III: temporal protection "until realloc").
        auto cfg = heap_cfg;
        cfg.scheme.quarantineBudget = 2048; // drain quickly
        sim::System s(workload::attacks::useAfterRecycle(96, 80), cfg);
        res.uafAfterRecycleMissed = !s.run().faulted();
    }
    { // Shadow space: no page of the shadow region is ever touched.
        sim::System s(workload::attacks::heapOverflowWrite(64, 4),
                      heap_cfg);
        s.run();
        res.usesShadowSpace =
            s.memory().pagesTouchedIn(
                runtime::AddressMap::shadowBase,
                runtime::AddressMap::shadowBase + (1ull << 44)) != 0;
    }
    { // Composability: detection inside uninstrumented library code
      // (the memcpy copy loop) with zero program instrumentation.
        sim::System s(workload::attacks::heartbleed(64, 256),
                      heap_cfg);
        res.composable = s.run().faulted();
    }

    res.spatialLinear = res.linearCaught && res.targetedMissed;
    res.temporalUntilRealloc =
        res.uafCaught && res.uafAfterRecycleMissed;
    return res;
}

} // namespace rest::probe

#endif // REST_BENCH_COMMON_PROBE_HH
