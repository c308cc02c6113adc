/**
 * @file
 * Unit tests for rest::trace: flag parsing, the debug window, the
 * bounded event ring, sink installation (thread-local vs global),
 * DPRINTF gating, Chrome trace-event serialisation and the O3PipeView
 * line format.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <thread>

#include "common/json_reader.hh"
#include "util/stats.hh"
#include "util/trace.hh"

namespace rest::trace
{

using util::JsonReader;
using util::JsonValue;

// ---------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------

TEST(TraceFlags, ParseSingleAndList)
{
    FlagMask mask = 0;
    ASSERT_TRUE(parseFlags("O3Pipe", &mask));
    EXPECT_EQ(mask, flagBit(Flag::O3Pipe));

    ASSERT_TRUE(parseFlags("Cache,TokenDetect,Sweep", &mask));
    EXPECT_EQ(mask, flagBit(Flag::Cache) | flagBit(Flag::TokenDetect) |
                        flagBit(Flag::Sweep));
}

TEST(TraceFlags, ParseAllAndEmpty)
{
    FlagMask mask = 0;
    ASSERT_TRUE(parseFlags("All", &mask));
    EXPECT_EQ(mask, allFlags);
    ASSERT_TRUE(parseFlags("all", &mask));
    EXPECT_EQ(mask, allFlags);

    ASSERT_TRUE(parseFlags("", &mask));
    EXPECT_EQ(mask, 0u);
    ASSERT_TRUE(parseFlags(",Alloc,,", &mask)); // stray commas tolerated
    EXPECT_EQ(mask, flagBit(Flag::Alloc));
}

TEST(TraceFlags, UnknownNameRejectedAndOutputUntouched)
{
    FlagMask mask = 0xdead;
    EXPECT_FALSE(parseFlags("Cache,NoSuchFlag", &mask));
    EXPECT_EQ(mask, 0xdeadu);
}

TEST(TraceFlags, EveryFlagRoundTripsThroughItsName)
{
    for (unsigned i = 0; i < numFlags; ++i) {
        Flag f = static_cast<Flag>(i);
        FlagMask mask = 0;
        ASSERT_TRUE(parseFlags(flagName(f), &mask)) << flagName(f);
        EXPECT_EQ(mask, flagBit(f));
    }
}

TEST(TraceFlags, FromEnvReadsRestDebugFlags)
{
    ::setenv("REST_DEBUG_FLAGS", "Cache,Alloc", 1);
    EXPECT_EQ(TraceConfig::fromEnv().flags,
              flagBit(Flag::Cache) | flagBit(Flag::Alloc));

    ::setenv("REST_DEBUG_FLAGS", "Bogus", 1);
    EXPECT_EQ(TraceConfig::fromEnv().flags, 0u); // warns, stays off

    ::unsetenv("REST_DEBUG_FLAGS");
    EXPECT_EQ(TraceConfig::fromEnv().flags, 0u);
}

// ---------------------------------------------------------------------
// Window + gating
// ---------------------------------------------------------------------

TEST(TraceSinkTest, FlagOnHonoursMaskAndWindow)
{
    TraceConfig cfg;
    cfg.flags = flagBit(Flag::Cache);
    cfg.debugStart = 100;
    cfg.debugEnd = 200;
    TraceSink sink(cfg);

    EXPECT_TRUE(sink.flagEnabled(Flag::Cache));
    EXPECT_FALSE(sink.flagEnabled(Flag::O3Pipe));

    EXPECT_FALSE(sink.flagOn(Flag::Cache, 99));
    EXPECT_TRUE(sink.flagOn(Flag::Cache, 100));
    EXPECT_TRUE(sink.flagOn(Flag::Cache, 200));
    EXPECT_FALSE(sink.flagOn(Flag::Cache, 201));
    EXPECT_FALSE(sink.flagOn(Flag::O3Pipe, 150));
}

TEST(TraceSinkTest, InactiveConfigIsInactive)
{
    TraceConfig cfg;
    EXPECT_FALSE(cfg.active());
    cfg.flags = flagBit(Flag::Sweep);
    EXPECT_TRUE(cfg.active());

    TraceConfig stats_only;
    stats_only.statsEvery = 100;
    EXPECT_TRUE(stats_only.active());

    TraceConfig out_only;
    out_only.traceOutPath = "t.json";
    EXPECT_TRUE(out_only.active());
}

TEST(TraceSinkTest, DprintfGatesOnFlagAndWindow)
{
    std::ostringstream text;
    TraceConfig cfg;
    cfg.flags = flagBit(Flag::Cache);
    cfg.debugStart = 10;
    cfg.messageStream = &text;
    TraceSink sink(cfg);
    ScopedSink scoped(&sink);

    REST_DPRINTF(Flag::Cache, 5, "l1d", "too early");   // before window
    REST_DPRINTF(Flag::O3Pipe, 20, "o3cpu", "flag off");
    REST_DPRINTF(Flag::Cache, 42, "l1d", "miss addr=", 7);

    EXPECT_EQ(text.str(), "42: l1d: miss addr=7\n");
}

TEST(TraceSinkTest, DprintfIsNoopWithoutSink)
{
    // No sink installed: must not crash, must evaluate nothing.
    ASSERT_EQ(sink(), nullptr);
    bool evaluated = false;
    auto touch = [&evaluated] {
        evaluated = true;
        return 1;
    };
    REST_DPRINTF(Flag::Cache, 0, "l1d", touch());
    EXPECT_FALSE(evaluated);
}

// ---------------------------------------------------------------------
// Event ring
// ---------------------------------------------------------------------

TEST(TraceSinkTest, RingKeepsNewestAndCountsDrops)
{
    TraceConfig cfg;
    cfg.flags = flagBit(Flag::Cache);
    cfg.ringCapacity = 4;
    TraceSink sink(cfg);

    for (std::uint64_t i = 0; i < 10; ++i)
        sink.instant(Flag::Cache, 0, "ev", i, "i", i);

    EXPECT_EQ(sink.eventsRecorded(), 10u);
    EXPECT_EQ(sink.eventsDropped(), 6u);
    auto evs = sink.events();
    ASSERT_EQ(evs.size(), 4u);
    // Chronological order, newest four retained.
    for (std::size_t i = 0; i < evs.size(); ++i)
        EXPECT_EQ(evs[i].start, 6 + i);
}

TEST(TraceSinkTest, TrackIdsAreStablePerComponent)
{
    TraceSink sink(TraceConfig{});
    std::uint32_t l1d = sink.trackFor("l1d");
    std::uint32_t l2 = sink.trackFor("l2");
    EXPECT_NE(l1d, l2);
    EXPECT_EQ(sink.trackFor("l1d"), l1d);
    auto names = sink.trackNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[l1d], "l1d");
    EXPECT_EQ(names[l2], "l2");
}

// ---------------------------------------------------------------------
// Sink installation
// ---------------------------------------------------------------------

TEST(TraceSinkTest, ScopedSinkInstallsAndRestores)
{
    ASSERT_EQ(sink(), nullptr);
    TraceSink a(TraceConfig{});
    TraceSink b(TraceConfig{});
    {
        ScopedSink sa(&a);
        EXPECT_EQ(sink(), &a);
        {
            ScopedSink sb(&b);
            EXPECT_EQ(sink(), &b);
        }
        EXPECT_EQ(sink(), &a);
    }
    EXPECT_EQ(sink(), nullptr);
}

TEST(TraceSinkTest, GlobalSinkIsFallbackOnly)
{
    TraceSink global(TraceConfig{});
    TraceSink local(TraceConfig{});
    ASSERT_EQ(setGlobalSink(&global), nullptr);
    EXPECT_EQ(sink(), &global);
    {
        // A thread-local sink shadows the global one.
        ScopedSink scoped(&local);
        EXPECT_EQ(sink(), &local);
    }
    EXPECT_EQ(sink(), &global);

    // Other threads see the global sink, not this thread's TLS.
    TraceSink *seen = nullptr;
    ScopedSink scoped(&local);
    std::thread([&seen] { seen = sink(); }).join();
    EXPECT_EQ(seen, &global);

    EXPECT_EQ(setGlobalSink(nullptr), &global);
    EXPECT_EQ(sink(), &local);
}

// ---------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------

TEST(ChromeTrace, SerialisesValidJsonWithTracksAndPhases)
{
    TraceConfig cfg;
    cfg.flags = flagBit(Flag::Cache) | flagBit(Flag::TokenDetect);
    TraceSink sink(cfg);
    std::uint32_t l1d = sink.trackFor("l1d");
    sink.complete(Flag::Cache, l1d, "fill", 10, 150, "line", 0x1000);
    sink.instant(Flag::TokenDetect, l1d, "token_detect", 150,
                 "token_bits", 3);
    sink.counter(Flag::Cache, l1d, "mshrs", 150, 2);

    std::ostringstream os;
    sink.writeChromeTrace(os);

    JsonReader parser(os.str());
    JsonValue root = parser.parse();
    ASSERT_TRUE(parser.ok()) << os.str();
    EXPECT_EQ(root.at("displayTimeUnit").str, "ns");
    ASSERT_TRUE(root.has("droppedEvents"));
    EXPECT_EQ(root.at("droppedEvents").number, 0);

    const auto &evs = root.at("traceEvents");
    ASSERT_EQ(evs.kind, JsonValue::Array);
    ASSERT_EQ(evs.items.size(), 4u); // 1 metadata + 3 events

    const auto &meta = evs.items[0];
    EXPECT_EQ(meta.at("ph").str, "M");
    EXPECT_EQ(meta.at("name").str, "thread_name");
    EXPECT_EQ(meta.at("args").at("name").str, "l1d");

    const auto &fill = evs.items[1];
    EXPECT_EQ(fill.at("ph").str, "X");
    EXPECT_EQ(fill.at("name").str, "fill");
    EXPECT_EQ(fill.at("cat").str, "Cache");
    EXPECT_EQ(fill.at("ts").number, 10);
    EXPECT_EQ(fill.at("dur").number, 140);
    EXPECT_EQ(fill.at("args").at("line").number, 0x1000);

    const auto &inst = evs.items[2];
    EXPECT_EQ(inst.at("ph").str, "i");
    EXPECT_EQ(inst.at("s").str, "t");
    EXPECT_EQ(inst.at("cat").str, "TokenDetect");

    const auto &ctr = evs.items[3];
    EXPECT_EQ(ctr.at("ph").str, "C");
    EXPECT_EQ(ctr.at("args").at("value").number, 2);
}

TEST(ChromeTrace, StatSnapshotsBecomeCounterSamples)
{
    TraceConfig cfg;
    cfg.statsEvery = 100;
    TraceSink sink(cfg);

    stats::StatGroup group("cpu");
    auto &ops = group.addScalar("ops", "");
    sink.registerStatGroup(&group);

    ops += 7;
    sink.statsTick(100);
    ops += 5;
    sink.flushStats(150);

    std::ostringstream os;
    sink.writeChromeTrace(os);
    JsonReader parser(os.str());
    JsonValue root = parser.parse();
    ASSERT_TRUE(parser.ok()) << os.str();

    const auto &evs = root.at("traceEvents");
    ASSERT_EQ(evs.items.size(), 2u);
    EXPECT_EQ(evs.items[0].at("ph").str, "C");
    EXPECT_EQ(evs.items[0].at("cat").str, "stats");
    EXPECT_EQ(evs.items[0].at("name").str, "cpu.ops");
    EXPECT_EQ(evs.items[0].at("ts").number, 100);
    EXPECT_EQ(evs.items[0].at("args").at("value").number, 7);
    EXPECT_EQ(evs.items[1].at("ts").number, 150);
    EXPECT_EQ(evs.items[1].at("args").at("value").number, 5);
}

TEST(ChromeTrace, WriteFileRejectsBadPath)
{
    TraceSink sink(TraceConfig{});
    EXPECT_FALSE(sink.writeChromeTraceFile("/nonexistent-dir/t.json"));
    EXPECT_FALSE(sink.writePipeViewFile("/nonexistent-dir/p.out"));
}

// ---------------------------------------------------------------------
// O3PipeView export
// ---------------------------------------------------------------------

TEST(PipeView, GoldenLineFormat)
{
    TraceSink sink(TraceConfig{});
    PipeRecord rec;
    rec.seq = 3;
    rec.pc = 0x400010;
    rec.disasm = "ld";
    rec.fetch = 100;
    rec.decode = 101;
    rec.rename = 102;
    rec.dispatch = 104;
    rec.issue = 105;
    rec.complete = 109;
    rec.retire = 110;
    rec.storeComplete = 0;
    sink.pipeView(rec);

    std::ostringstream os;
    sink.writePipeView(os);
    EXPECT_EQ(os.str(),
              "O3PipeView:fetch:100:0x00400010:0:3:ld\n"
              "O3PipeView:decode:101\n"
              "O3PipeView:rename:102\n"
              "O3PipeView:dispatch:104\n"
              "O3PipeView:issue:105\n"
              "O3PipeView:complete:109\n"
              "O3PipeView:retire:110:store:0\n");
}

TEST(PipeView, CapacityBoundsRecords)
{
    TraceConfig cfg;
    cfg.pipeCapacity = 2;
    TraceSink sink(cfg);
    for (std::uint64_t i = 0; i < 5; ++i) {
        PipeRecord rec;
        rec.seq = i;
        sink.pipeView(rec);
    }
    auto recs = sink.pipeRecords();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].seq, 0u);
    EXPECT_EQ(recs[1].seq, 1u);
}

} // namespace rest::trace
