#include "sim/results.hh"

#include <fstream>

#include "util/json_writer.hh"
#include "util/logging.hh"

namespace rest::sim
{

namespace
{

void
writeStringArray(util::JsonWriter &w, const char *key,
                 const std::vector<std::string> &items)
{
    w.key(key);
    w.beginArray();
    for (const auto &s : items)
        w.value(s);
    w.endArray();
}

void
writeDoubleMap(util::JsonWriter &w, const char *key,
               const std::map<std::string, double> &m)
{
    w.key(key);
    w.beginObject();
    for (const auto &[name, v] : m)
        w.field(name, v);
    w.endObject();
}

void
writeCell(util::JsonWriter &w, const SweepCell &cell)
{
    w.beginObject();
    w.field("bench", cell.bench);
    w.field("column", cell.column);
    if (!cell.ok) {
        // Failed cell: the error record replaces the measurement
        // fields so downstream tooling cannot mistake a failure for
        // a zero-cycle run.
        w.field("error", cell.error);
        w.endObject();
        return;
    }
    w.field("cycles", std::uint64_t(cell.cycles));
    w.field("ops", cell.ops);
    if (cell.execMode != "detailed") {
        w.field("exec_mode", cell.execMode);
        if (cell.execMode == "sampled")
            w.field("sampling_error_pct", cell.samplingErrorPct);
    }
    w.key("seed_cycles");
    w.beginArray();
    for (Cycles c : cell.seedCycles)
        w.value(std::uint64_t(c));
    w.endArray();
    w.key("scalars");
    w.beginObject();
    for (const auto &[name, v] : cell.scalars)
        w.field(name, v);
    w.endObject();
    if (!cell.statSeries.empty()) {
        w.key("stat_series");
        w.beginArray();
        for (const auto &snap : cell.statSeries) {
            w.beginObject();
            w.field("cycle", std::uint64_t(snap.cycle));
            w.key("deltas");
            w.beginObject();
            for (const auto &[name, v] : snap.deltas)
                w.field(name, v);
            w.endObject();
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
}

void
writeSweep(util::JsonWriter &w, const SweepResults &sweep)
{
    w.beginObject();
    w.field("name", sweep.name);
    writeStringArray(w, "columns", sweep.columns);
    writeStringArray(w, "rows", sweep.rows);
    w.key("cells");
    w.beginArray();
    for (const auto &cell : sweep.cells)
        writeCell(w, cell);
    w.endArray();
    if (!sweep.baselineCycles.empty()) {
        w.key("baseline_cycles");
        w.beginObject();
        for (const auto &[bench, cycles] : sweep.baselineCycles)
            w.field(bench, std::uint64_t(cycles));
        w.endObject();
    }
    if (!sweep.wtdAriMeanPct.empty())
        writeDoubleMap(w, "wtd_ari_mean_pct", sweep.wtdAriMeanPct);
    if (!sweep.geoMeanPct.empty())
        writeDoubleMap(w, "geo_mean_pct", sweep.geoMeanPct);
    w.endObject();
}

} // namespace

void
writeJson(const ResultsFile &results, std::ostream &os)
{
    util::JsonWriter w(os);
    w.beginObject();
    w.field("schema_version", std::uint64_t(1));
    w.field("figure", results.figure);
    w.field("kiloinsts", results.kiloInsts);
    w.field("seeds_per_cell", results.seedsPerCell);
    w.field("jobs", results.jobs);
    w.key("sweeps");
    w.beginArray();
    for (const auto &sweep : results.sweeps)
        writeSweep(w, sweep);
    w.endArray();
    w.endObject();
    os << "\n";
}

bool
writeJsonFile(const ResultsFile &results, const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        rest_warn("cannot open results file ", path,
                  "; skipping JSON output");
        return false;
    }
    writeJson(results, out);
    out.flush();
    if (!out) {
        rest_warn("short write to results file ", path);
        return false;
    }
    return true;
}

} // namespace rest::sim
