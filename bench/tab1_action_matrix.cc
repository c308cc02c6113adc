/**
 * @file
 * Reproduces paper Table I: drives every (action x LSQ / cache-hit /
 * cache-miss) cell of the REST semantics through the hardware models
 * and prints the observed behaviour next to the specified one.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/rest_engine.hh"
#include "util/json_writer.hh"
#include "core/token.hh"
#include "cpu/lsq.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/rest_l1_cache.hh"
#include "util/logging.hh"
#include "util/random.hh"

using namespace rest;

namespace
{

struct Row
{
    std::string action;
    std::string column;
    std::string specified;
    std::string observed;
    bool pass;
};

std::vector<Row> rows;

void
record(const std::string &action, const std::string &column,
       const std::string &specified, const std::string &observed)
{
    rows.push_back({action, column, specified, observed,
                    specified == observed});
}

/** Fresh L1-D + memory harness per scenario. */
struct Rig
{
    Rig()
    {
        Xoshiro256ss rng(7);
        tcr.writePrivileged(
            core::TokenValue::generate(rng, core::TokenWidth::Bytes64),
            core::RestMode::Secure);
        dram = std::make_unique<mem::Dram>();
        l2 = std::make_unique<mem::Cache>(mem::CacheConfig::l2(),
                                          *dram);
        l1 = std::make_unique<mem::RestL1Cache>(mem::CacheConfig::l1d(),
                                                *l2, memory, tcr);
    }

    mem::GuestMemory memory;
    core::TokenConfigRegister tcr;
    std::unique_ptr<mem::Dram> dram;
    std::unique_ptr<mem::Cache> l2;
    std::unique_ptr<mem::RestL1Cache> l1;
};

std::string
outcome(const mem::RestAccess &acc)
{
    if (acc.violation == core::ViolationKind::None)
        return "ok";
    return core::violationKindName(acc.violation);
}

void
cacheCells()
{
    constexpr Addr a = 0x10040;

    { // Arm, hit
        Rig r;
        r.l1->loadAccess(a, 8, 0);
        auto acc = r.l1->armAccess(a, 100);
        record("arm", "cache-hit", "set token bit",
               acc.hit && !acc.faulted() && r.l1->tokenBitSet(a)
                   ? "set token bit" : outcome(acc));
    }
    { // Arm, miss
        Rig r;
        auto acc = r.l1->armAccess(a, 0);
        record("arm", "cache-miss", "fetch line, set token bit",
               !acc.hit && !acc.faulted() && r.l1->tokenBitSet(a)
                   ? "fetch line, set token bit" : outcome(acc));
    }
    { // Disarm, hit, armed
        Rig r;
        r.l1->armAccess(a, 0);
        auto acc = r.l1->disarmAccess(a, 100);
        bool zeroed = true;
        for (unsigned i = 0; i < 64; ++i)
            zeroed &= (r.memory.readByte(a + i) == 0);
        record("disarm(armed)", "cache-hit",
               "clear line, unset token bit",
               !acc.faulted() && !r.l1->tokenBitSet(a) && zeroed
                   ? "clear line, unset token bit" : outcome(acc));
    }
    { // Disarm, hit, unarmed
        Rig r;
        r.l1->loadAccess(a, 8, 0);
        auto acc = r.l1->disarmAccess(a, 100);
        record("disarm(unarmed)", "cache-hit", "raise exception",
               acc.violation == core::ViolationKind::DisarmUnarmed
                   ? "raise exception" : outcome(acc));
    }
    { // Disarm, miss (token in memory)
        Rig r;
        r.memory.writeBytes(a, r.tcr.token().bytes());
        auto acc = r.l1->disarmAccess(a, 0);
        record("disarm(armed)", "cache-miss",
               "fetch line, proceed as hit",
               !acc.hit && !acc.faulted() && !r.l1->tokenBitSet(a)
                   ? "fetch line, proceed as hit" : outcome(acc));
    }
    { // Load, hit, token set
        Rig r;
        r.l1->armAccess(a, 0);
        auto acc = r.l1->loadAccess(a, 8, 100);
        record("load(armed)", "cache-hit", "raise exception",
               acc.violation == core::ViolationKind::TokenAccess
                   ? "raise exception" : outcome(acc));
    }
    { // Load, hit, clean
        Rig r;
        r.l1->loadAccess(a, 8, 0);
        auto acc = r.l1->loadAccess(a, 8, 100);
        record("load(clean)", "cache-hit", "read data",
               acc.hit && !acc.faulted() ? "read data" : outcome(acc));
    }
    { // Load, miss on a token-carrying line
        Rig r;
        r.memory.writeBytes(a, r.tcr.token().bytes());
        auto acc = r.l1->loadAccess(a, 8, 0);
        record("load(armed)", "cache-miss",
               "fetch, set bit, proceed as hit (raise)",
               !acc.hit &&
                   acc.violation == core::ViolationKind::TokenAccess
                   ? "fetch, set bit, proceed as hit (raise)"
                   : outcome(acc));
    }
    { // Store, hit, token set
        Rig r;
        r.l1->armAccess(a, 0);
        auto acc = r.l1->storeAccess(a, 8, 100);
        record("store(armed)", "cache-hit", "raise exception",
               acc.violation == core::ViolationKind::TokenAccess
                   ? "raise exception" : outcome(acc));
    }
    { // Store, hit, clean
        Rig r;
        r.l1->loadAccess(a, 8, 0);
        auto acc = r.l1->storeAccess(a, 8, 100);
        record("store(clean)", "cache-hit", "write data",
               acc.hit && !acc.faulted() ? "write data" : outcome(acc));
    }
    { // Eviction of an armed line
        Rig r;
        r.l1->armAccess(a, 0);
        r.l1->flushAll();
        std::vector<std::uint8_t> buf(64);
        r.memory.readBytes(a, {buf.data(), buf.size()});
        record("eviction", "cache",
               "fill token value in outgoing packet",
               r.tcr.token().matches({buf.data(), buf.size()})
                   ? "fill token value in outgoing packet"
                   : "token value missing");
    }
}

void
lsqCells()
{
    { // Arm: create entry, tag as arm (never faults)
        cpu::Lsq lsq;
        auto v = lsq.checkInsert(0x1000, 64, true, false);
        lsq.insert({1, 0x1000, 64, true, false, 1000});
        record("arm", "LSQ", "create entry, tag as arm",
               v == core::ViolationKind::None && lsq.occupancy() == 1
                   ? "create entry, tag as arm"
                   : core::violationKindName(v));
    }
    { // Disarm over in-flight disarm: raise
        cpu::Lsq lsq;
        lsq.insert({1, 0x1000, 64, false, true, 1000});
        auto v = lsq.checkInsert(0x1000, 64, false, true);
        record("disarm", "LSQ",
               "raise if SQ has disarm for same location",
               v == core::ViolationKind::DisarmUnarmed
                   ? "raise if SQ has disarm for same location"
                   : core::violationKindName(v));
    }
    { // Load forwarding from an armed entry: raise
        cpu::Lsq lsq;
        lsq.insert({1, 0x1000, 64, true, false, 1000});
        auto chk = lsq.checkLoad(2, 0x1010, 8);
        record("load", "LSQ",
               "raise if value would forward from armed entry",
               chk.violation == core::ViolationKind::TokenForward
                   ? "raise if value would forward from armed entry"
                   : core::violationKindName(chk.violation));
    }
    { // Load forwarding from a plain store: as usual
        cpu::Lsq lsq;
        lsq.insert({1, 0x1000, 8, false, false, 1000});
        auto chk = lsq.checkLoad(2, 0x1000, 8);
        record("load", "LSQ(plain)", "forward as usual",
               chk.forwarded ? "forward as usual" : "no forward");
    }
    { // Store over in-flight arm: raise
        cpu::Lsq lsq;
        lsq.insert({1, 0x1000, 64, true, false, 1000});
        auto v = lsq.checkInsert(0x1008, 8, false, false);
        record("store", "LSQ",
               "raise if SQ has arm for same location",
               v == core::ViolationKind::TokenForward
                   ? "raise if SQ has arm for same location"
                   : core::violationKindName(v));
    }
}

/**
 * Run one probe group with fatals converted to exceptions
 * (DESIGN.md §10): a broken model records a FAIL row instead of
 * killing the harness before the table prints.
 */
void
guarded(const char *group, void (*fn)())
{
    util::ScopedFatalThrow fatal_throws;
    try {
        fn();
    } catch (const std::exception &e) {
        record(group, "harness", "probes complete",
               std::string("error: ") + e.what());
    }
}

/** Table I is not a sweep; its JSON is the cell matrix itself. */
void
writeJson(const bench::Options &opt, int failures)
{
    if (!opt.json)
        return;
    std::ofstream out(opt.jsonPath);
    if (!out) {
        rest_warn("cannot open results file ", opt.jsonPath);
        return;
    }
    util::JsonWriter w(out);
    w.beginObject();
    w.field("schema_version", std::uint64_t(1));
    w.field("figure", "tab1");
    w.key("cells");
    w.beginArray();
    for (const auto &row : rows) {
        w.beginObject();
        w.field("action", row.action);
        w.field("column", row.column);
        w.field("specified", row.specified);
        w.field("observed", row.observed);
        w.field("pass", row.pass);
        w.endObject();
    }
    w.endArray();
    w.field("failures", std::uint64_t(failures));
    w.endObject();
    out << "\n";
    std::cout << "\nresults: " << opt.jsonPath << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::parseOptions(argc, argv, "tab1");
    bench::installGlobalTrace(opt);

    std::cout << "=================================================\n"
              << "Table I: REST action matrix, observed vs spec\n"
              << "=================================================\n";
    guarded("cache cells", cacheCells);
    guarded("lsq cells", lsqCells);

    int failures = 0;
    std::cout << std::left << std::setw(17) << "action"
              << std::setw(12) << "column" << std::setw(6) << "pass"
              << "behaviour\n"
              << std::string(78, '-') << "\n";
    for (const auto &row : rows) {
        std::cout << std::left << std::setw(17) << row.action
                  << std::setw(12) << row.column << std::setw(6)
                  << (row.pass ? "PASS" : "FAIL") << row.observed
                  << "\n";
        failures += !row.pass;
    }
    std::cout << std::string(78, '-') << "\n"
              << rows.size() - failures << "/" << rows.size()
              << " cells match Table I\n";
    writeJson(opt, failures);
    return failures ? 1 : 0;
}
