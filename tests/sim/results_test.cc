/**
 * @file
 * Round-trip regression tests for the sweep results layer: a
 * serialised ResultsFile parses back (with util::JsonReader) with every cell, mean and configuration name present, and
 * serialisation is byte-stable across runs with fixed seeds.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_reader.hh"
#include "sim/results.hh"
#include "sim/sweep.hh"

namespace rest::sim
{

namespace
{

using util::JsonReader;
using util::JsonValue;

// ---- Fixtures ----

/** A small but fully populated results file. */
ResultsFile
sampleResults()
{
    ResultsFile f;
    f.figure = "fig7";
    f.kiloInsts = 10;
    f.seedsPerCell = 2;
    f.jobs = 4;

    SweepResults sweep;
    sweep.name = "overheads";
    sweep.columns = {"Plain", "ASan"};
    sweep.rows = {"sjeng", "hmmer"};
    for (const char *bench : {"sjeng", "hmmer"}) {
        for (const char *col : {"Plain", "ASan"}) {
            SweepCell cell;
            cell.bench = bench;
            cell.column = col;
            cell.cycles = 1000 + 7 * cell.bench.size();
            cell.ops = 500;
            cell.seedCycles = {990, 1010};
            cell.scalars = {{"o3cpu.iq_full_stall_cycles", 3},
                            {"l1d.token_evictions", 1}};
            sweep.cells.push_back(cell);
        }
    }
    sweep.baselineCycles = {{"sjeng", 1035}, {"hmmer", 1035}};
    sweep.wtdAriMeanPct = {{"ASan", 41.5}};
    sweep.geoMeanPct = {{"ASan", 39.25}};
    f.sweeps.push_back(sweep);
    return f;
}

std::string
serialise(const ResultsFile &f)
{
    std::ostringstream os;
    writeJson(f, os);
    return os.str();
}

} // namespace

TEST(Results, RoundTripPreservesEverything)
{
    ResultsFile f = sampleResults();
    std::string text = serialise(f);

    JsonReader parser(text);
    JsonValue root = parser.parse();
    ASSERT_TRUE(parser.ok()) << text;

    EXPECT_EQ(root.at("schema_version").number, 1);
    EXPECT_EQ(root.at("figure").str, "fig7");
    EXPECT_EQ(root.at("kiloinsts").number, 10);
    EXPECT_EQ(root.at("seeds_per_cell").number, 2);
    EXPECT_EQ(root.at("jobs").number, 4);

    const auto &sweeps = root.at("sweeps");
    ASSERT_EQ(sweeps.kind, JsonValue::Array);
    ASSERT_EQ(sweeps.items.size(), 1u);
    const auto &sweep = sweeps.items[0];
    EXPECT_EQ(sweep.at("name").str, "overheads");

    // Config (column) and row names all present.
    const auto &cols = sweep.at("columns");
    ASSERT_EQ(cols.items.size(), 2u);
    EXPECT_EQ(cols.items[0].str, "Plain");
    EXPECT_EQ(cols.items[1].str, "ASan");
    ASSERT_EQ(sweep.at("rows").items.size(), 2u);

    // Every cell with cycles, ops, per-seed cycles and scalars.
    const auto &cells = sweep.at("cells");
    ASSERT_EQ(cells.items.size(), 4u);
    for (const auto &cell : cells.items) {
        EXPECT_FALSE(cell.at("bench").str.empty());
        EXPECT_FALSE(cell.at("column").str.empty());
        EXPECT_GT(cell.at("cycles").number, 0);
        EXPECT_EQ(cell.at("ops").number, 500);
        ASSERT_EQ(cell.at("seed_cycles").items.size(), 2u);
        EXPECT_EQ(cell.at("seed_cycles").items[0].number, 990);
        const auto &scalars = cell.at("scalars");
        EXPECT_EQ(scalars.at("o3cpu.iq_full_stall_cycles").number, 3);
        EXPECT_EQ(scalars.at("l1d.token_evictions").number, 1);
    }

    // Baseline and the aggregate means.
    EXPECT_EQ(sweep.at("baseline_cycles").at("sjeng").number, 1035);
    EXPECT_EQ(sweep.at("wtd_ari_mean_pct").at("ASan").number, 41.5);
    EXPECT_EQ(sweep.at("geo_mean_pct").at("ASan").number, 39.25);
}

TEST(Results, ErrorCellsSerialiseAsErrorRecords)
{
    ResultsFile f = sampleResults();
    // Fail one cell the way runMatrix() does when a seed job fails.
    SweepCell &failed = f.sweeps[0].cells[1];
    failed.ok = false;
    failed.error = "benchmark faulted at job 3";
    failed.cycles = 0;
    failed.ops = 0;
    failed.seedCycles.clear();
    failed.scalars.clear();

    std::string text = serialise(f);
    JsonReader parser(text);
    JsonValue root = parser.parse();
    ASSERT_TRUE(parser.ok()) << text;

    ASSERT_EQ(root.at("sweeps").items.size(), 1u);
    const auto &cells = root.at("sweeps").items[0].at("cells");
    ASSERT_EQ(cells.items.size(), 4u);

    // The failed cell is an {error} record with no measurement fields
    // a consumer could mistake for data.
    const auto &bad = cells.items[1];
    ASSERT_TRUE(bad.has("error"));
    EXPECT_EQ(bad.at("error").str, "benchmark faulted at job 3");
    EXPECT_EQ(bad.at("bench").str, "sjeng");
    EXPECT_EQ(bad.at("column").str, "ASan");
    EXPECT_EQ(bad.members.size(), 3u); // bench, column, error
    EXPECT_FALSE(bad.has("cycles"));
    EXPECT_FALSE(bad.has("ops"));
    EXPECT_FALSE(bad.has("seed_cycles"));

    // The surviving cells keep their measurements and carry no
    // "error" key.
    EXPECT_TRUE(cells.items[0].has("cycles"));
    EXPECT_FALSE(cells.items[0].has("error"));
    EXPECT_TRUE(cells.items[2].has("cycles"));
}

TEST(Results, SerialisationIsByteStable)
{
    ResultsFile f = sampleResults();
    EXPECT_EQ(serialise(f), serialise(f));
}

TEST(Results, RealSweepSerialisesAndParses)
{
    // End to end with a genuine (tiny) sweep through the runner, run
    // twice: fixed seeds must give byte-identical JSON.
    auto buildFile = [] {
        auto p = workload::profileByName("sjeng");
        p.targetKiloInsts = 10;
        auto rs = SweepRunner(2).run(
            {makePresetJob(p, ExpConfig::Plain),
             makePresetJob(p, ExpConfig::RestSecureFull)});

        ResultsFile f;
        f.figure = "unit";
        f.kiloInsts = 10;
        f.seedsPerCell = 1;
        f.jobs = 2;
        SweepResults sweep;
        sweep.name = "tiny";
        sweep.columns = {"Plain", "Secure Full"};
        sweep.rows = {"sjeng"};
        for (const auto &r : rs) {
            const Measurement &m = r.measurement;
            SweepCell cell;
            cell.bench = m.bench;
            cell.column = m.label;
            cell.cycles = m.cycles;
            cell.ops = m.ops;
            cell.seedCycles = {m.cycles};
            cell.scalars = m.scalars;
            sweep.cells.push_back(cell);
        }
        Cycles base = rs[0].measurement.cycles;
        Cycles secure = rs[1].measurement.cycles;
        sweep.baselineCycles["sjeng"] = base;
        sweep.wtdAriMeanPct["Secure Full"] =
            wtdAriMeanOverheadPct({base}, {secure});
        sweep.geoMeanPct["Secure Full"] =
            geoMeanOverheadPct({base}, {secure});
        f.sweeps.push_back(sweep);
        return f;
    };

    std::string first = serialise(buildFile());
    std::string second = serialise(buildFile());
    EXPECT_EQ(first, second);

    JsonReader parser(first);
    JsonValue root = parser.parse();
    ASSERT_TRUE(parser.ok());
    const auto &sweep = root.at("sweeps").items.at(0);
    ASSERT_EQ(sweep.at("cells").items.size(), 2u);
    EXPECT_EQ(sweep.at("cells").items[0].at("column").str, "Plain");
    EXPECT_EQ(sweep.at("cells").items[1].at("column").str,
              "Secure Full");
    EXPECT_TRUE(sweep.at("wtd_ari_mean_pct").has("Secure Full"));
    EXPECT_TRUE(sweep.at("geo_mean_pct").has("Secure Full"));
    EXPECT_FALSE(
        sweep.at("cells").items[1].at("scalars").members.empty());
}

TEST(Results, WriteJsonFileRejectsBadPath)
{
    EXPECT_FALSE(writeJsonFile(sampleResults(),
                               "/nonexistent-dir/out.json"));
}

TEST(Results, WriteJsonFileRoundTripsThroughDisk)
{
    ResultsFile f = sampleResults();
    std::string path = testing::TempDir() + "/rest_results_test.json";
    ASSERT_TRUE(writeJsonFile(f, path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), serialise(f));
}

} // namespace rest::sim
