#include "sim/system.hh"

namespace rest::sim
{

namespace
{

std::vector<isa::Program>
onlyProgram(isa::Program program)
{
    std::vector<isa::Program> programs;
    programs.push_back(std::move(program));
    return programs;
}

} // namespace

System::System(isa::Program program, const SystemConfig &cfg)
    : machine_(onlyProgram(std::move(program)), MultiCoreConfig{cfg})
{
}

SystemResult
System::run()
{
    const MultiCoreResult mr = machine_.run();
    SystemResult res;
    res.run = mr.cores[0];
    res.instrumentation = mr.instrumentation[0];
    res.fastFunctional = mr.fastFunctional;
    res.sampled = mr.sampled;
    res.sampling = mr.sampling;
    res.armsExecuted = mr.armsExecuted;
    res.disarmsExecuted = mr.disarmsExecuted;
    res.mallocCalls = mr.mallocCalls;
    res.freeCalls = mr.freeCalls;
    return res;
}

} // namespace rest::sim
