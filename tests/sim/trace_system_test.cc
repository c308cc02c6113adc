/**
 * @file
 * System-level contracts of the tracing layer:
 *
 *   - tracing is observer-only: enabling every flag changes no
 *     simulated outcome (cycles, stats) relative to an untraced run;
 *   - a Chrome trace written from a real run is valid JSON in the
 *     trace-event schema;
 *   - O3PipeView records respect pipeline stage ordering;
 *   - periodic stat-snapshot deltas sum to the run's final totals;
 *   - with tracing off, the results JSON is byte-identical across
 *     sweep thread counts (the PR's no-perturbation guarantee).
 */

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "common/json_reader.hh"
#include "common/test_util.hh"
#include "sim/results.hh"
#include "sim/sweep.hh"
#include "workload/spec_profiles.hh"

namespace rest::sim
{

using util::JsonReader;
using util::JsonValue;

namespace
{

isa::Program
tinyBench(const char *name = "hmmer")
{
    auto p = workload::profileByName(name);
    p.targetKiloInsts = 20;
    return workload::generate(p);
}

} // namespace

TEST(TraceSystem, InactiveConfigCreatesNoSink)
{
    SystemConfig cfg = makeSystemConfig(ExpConfig::RestSecureFull);
    System system(tinyBench(), cfg);
    EXPECT_EQ(system.traceSink(), nullptr);
    EXPECT_FALSE(system.run().faulted());
    EXPECT_TRUE(system.statSnapshots().empty());
}

TEST(TraceSystem, TracingIsObserverOnly)
{
    // Same program, same config — one run silent, one with every flag
    // live plus periodic snapshots. Every simulated outcome must be
    // identical; the trace may only observe.
    SystemConfig off = makeSystemConfig(ExpConfig::RestSecureFull);
    System silent(tinyBench(), off);
    SystemResult ref = silent.run();

    std::ostringstream messages;
    SystemConfig on = off;
    on.trace.flags = trace::allFlags;
    on.trace.statsEvery = 1000;
    on.trace.messageStream = &messages;
    System traced(tinyBench(), on);
    SystemResult got = traced.run();

    EXPECT_EQ(got.cycles(), ref.cycles());
    EXPECT_EQ(got.run.committedOps, ref.run.committedOps);
    EXPECT_EQ(got.armsExecuted, ref.armsExecuted);
    EXPECT_EQ(got.mallocCalls, ref.mallocCalls);
    EXPECT_EQ(got.freeCalls, ref.freeCalls);

    std::ostringstream stats_ref, stats_got;
    silent.dumpStats(stats_ref);
    traced.dumpStats(stats_got);
    EXPECT_EQ(stats_got.str(), stats_ref.str());

    // And the trace did actually observe something.
    ASSERT_NE(traced.traceSink(), nullptr);
    EXPECT_GT(traced.traceSink()->eventsRecorded(), 0u);
    EXPECT_FALSE(messages.str().empty());
}

TEST(TraceSystem, ChromeTraceFromRealRunParses)
{
    SystemConfig cfg = makeSystemConfig(ExpConfig::RestSecureFull);
    cfg.trace.flags = trace::flagBit(trace::Flag::Cache) |
                      trace::flagBit(trace::Flag::TokenDetect) |
                      trace::flagBit(trace::Flag::Alloc);
    std::ostringstream devnull;
    cfg.trace.messageStream = &devnull;

    System system(tinyBench(), cfg);
    ASSERT_FALSE(system.run().faulted());
    ASSERT_NE(system.traceSink(), nullptr);

    std::ostringstream os;
    system.traceSink()->writeChromeTrace(os);

    JsonReader parser(os.str());
    JsonValue root = parser.parse();
    ASSERT_TRUE(parser.ok());
    EXPECT_EQ(root.at("displayTimeUnit").str, "ns");

    const auto &evs = root.at("traceEvents");
    ASSERT_EQ(evs.kind, JsonValue::Array);
    EXPECT_GT(evs.items.size(), 1u);
    for (const auto &ev : evs.items) {
        ASSERT_EQ(ev.kind, JsonValue::Object);
        EXPECT_TRUE(ev.has("ph"));
        EXPECT_TRUE(ev.has("pid"));
        EXPECT_TRUE(ev.has("tid"));
        const std::string &ph = ev.at("ph").str;
        EXPECT_TRUE(ph == "M" || ph == "X" || ph == "i" || ph == "C")
            << ph;
        if (ph != "M") {
            EXPECT_TRUE(ev.has("ts"));
        }
        if (ph == "X") {
            EXPECT_TRUE(ev.has("dur"));
        }
    }
}

TEST(TraceSystem, PipeViewStagesAreMonotone)
{
    SystemConfig cfg = makeSystemConfig(ExpConfig::RestSecureFull);
    cfg.trace.flags = trace::flagBit(trace::Flag::O3Pipe);
    std::ostringstream devnull;
    cfg.trace.messageStream = &devnull;

    System system(tinyBench(), cfg);
    SystemResult result = system.run();
    ASSERT_FALSE(result.faulted());

    auto records = system.traceSink()->pipeRecords();
    ASSERT_FALSE(records.empty());

    std::uint64_t prev_seq = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &r = records[i];
        SCOPED_TRACE("record " + std::to_string(i) + " seq " +
                     std::to_string(r.seq));
        EXPECT_LE(r.fetch, r.decode);
        EXPECT_LE(r.decode, r.rename);
        EXPECT_LE(r.rename, r.dispatch);
        EXPECT_LE(r.dispatch, r.issue);
        EXPECT_LE(r.issue, r.complete);
        EXPECT_LE(r.complete, r.retire);
        if (r.storeComplete != 0) {
            EXPECT_GE(r.storeComplete, r.issue);
        }
        if (i > 0) {
            EXPECT_GT(r.seq, prev_seq); // program order
        }
        prev_seq = r.seq;
    }

    // The serialised form round-trips the same record count: seven
    // lines per record, first line carries the fetch stage.
    std::ostringstream os;
    system.traceSink()->writePipeView(os);
    std::istringstream in(os.str());
    std::string line;
    std::size_t fetch_lines = 0, lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        ASSERT_EQ(line.rfind("O3PipeView:", 0), 0u) << line;
        if (line.rfind("O3PipeView:fetch:", 0) == 0)
            ++fetch_lines;
    }
    EXPECT_EQ(fetch_lines, records.size());
    EXPECT_EQ(lines, records.size() * 7);
}

TEST(TraceSystem, StatSeriesDeltasSumToFinalTotals)
{
    SystemConfig cfg = makeSystemConfig(ExpConfig::RestSecureFull);
    cfg.trace.statsEvery = 1000;

    System system(tinyBench(), cfg);
    SystemResult result = system.run();
    ASSERT_FALSE(result.faulted());

    auto series = system.statSnapshots();
    ASSERT_GT(series.size(), 1u);
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_LT(series[i - 1].cycle, series[i].cycle);
    // Final snapshot is the flush at end-of-run.
    EXPECT_EQ(series.back().cycle, result.cycles());

    auto sum_of = [&series](const std::string &key) {
        std::uint64_t total = 0;
        for (const auto &snap : series) {
            auto it = snap.deltas.find(key);
            if (it != snap.deltas.end())
                total += it->second;
        }
        return total;
    };
    EXPECT_EQ(sum_of("o3cpu.committed_ops"), result.run.committedOps);
    EXPECT_EQ(sum_of("l1d.hits"),
              system.dcache().statGroup().scalarValue("hits"));
    EXPECT_EQ(sum_of("l2.misses"),
              system.l2cache().statGroup().scalarValue("misses"));
}

TEST(TraceSystem, StatSeriesFlowsIntoMeasurement)
{
    auto p = workload::profileByName("hmmer");
    p.targetKiloInsts = 20;

    SystemConfig cfg = makeSystemConfig(ExpConfig::RestSecureFull);
    cfg.trace.statsEvery = 2000;
    Measurement m = runBench(p, cfg, "traced");
    EXPECT_FALSE(m.statSeries.empty());

    // Untraced runs carry no series, so default JSON stays unchanged.
    Measurement plain = runBench(
        p, makeSystemConfig(ExpConfig::RestSecureFull), "Secure Full");
    EXPECT_TRUE(plain.statSeries.empty());
    EXPECT_EQ(plain.cycles, m.cycles); // tracing still observer-only
}

namespace
{

/** Serialise a measurement set the way the harnesses do. */
std::string
resultsJson(const std::vector<Measurement> &ms, unsigned jobs)
{
    ResultsFile rf;
    rf.figure = "trace_invariance";
    rf.kiloInsts = 20;
    rf.seedsPerCell = 1;
    rf.jobs = jobs;
    SweepResults sweep;
    sweep.name = "matrix";
    for (const auto &m : ms) {
        SweepCell cell;
        cell.bench = m.bench;
        cell.column = m.label;
        cell.cycles = m.cycles;
        cell.ops = m.ops;
        cell.seedCycles = {m.cycles};
        cell.scalars = m.scalars;
        cell.statSeries = m.statSeries;
        sweep.cells.push_back(std::move(cell));
    }
    rf.sweeps.push_back(std::move(sweep));
    std::ostringstream os;
    writeJson(rf, os);
    return os.str();
}

} // namespace

TEST(TraceSystem, ResultsJsonByteIdenticalAcrossJobCounts)
{
    // With tracing off (the default for every SweepJob), the results
    // JSON must not depend on how many worker threads ran the sweep.
    std::vector<SweepJob> jobs;
    for (const char *bench : {"sjeng", "hmmer"}) {
        for (ExpConfig config : {ExpConfig::Plain,
                                 ExpConfig::RestSecureFull}) {
            auto p = workload::profileByName(bench);
            p.targetKiloInsts = 20;
            jobs.push_back({p, makeSystemConfig(config),
                            expConfigName(config)});
        }
    }

    auto toMeasurements = [](const std::vector<JobResult> &rs) {
        std::vector<Measurement> ms;
        for (const auto &r : rs)
            ms.push_back(r.measurement);
        return ms;
    };
    auto serial = toMeasurements(SweepRunner(1).run(jobs));
    auto parallel = toMeasurements(SweepRunner(4).run(jobs));
    EXPECT_EQ(resultsJson(serial, 1), resultsJson(parallel, 1));
}

TEST(TraceSystem, StatSeriesSerialisedOnlyWhenPresent)
{
    auto p = workload::profileByName("hmmer");
    p.targetKiloInsts = 20;

    Measurement plain =
        runBench(p, makeSystemConfig(ExpConfig::Plain), "Plain");
    std::string without = resultsJson({plain}, 1);
    EXPECT_EQ(without.find("stat_series"), std::string::npos);

    SystemConfig cfg = makeSystemConfig(ExpConfig::Plain);
    cfg.trace.statsEvery = 2000;
    Measurement traced = runBench(p, cfg, "Plain");
    std::string with = resultsJson({traced}, 1);
    ASSERT_NE(with.find("stat_series"), std::string::npos);

    // And the augmented file still parses.
    JsonReader parser(with);
    JsonValue root = parser.parse();
    ASSERT_TRUE(parser.ok());
    ASSERT_EQ(root.at("sweeps").items.size(), 1u);
    const auto &cells = root.at("sweeps").items[0].at("cells");
    ASSERT_EQ(cells.items.size(), 1u);
    const auto &cell = cells.items[0];
    const auto &series = cell.at("stat_series");
    ASSERT_EQ(series.kind, JsonValue::Array);
    ASSERT_FALSE(series.items.empty());
    EXPECT_TRUE(series.items[0].has("cycle"));
    EXPECT_TRUE(series.items[0].has("deltas"));
}

} // namespace rest::sim
