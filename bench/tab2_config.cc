/**
 * @file
 * Reproduces paper Table II: prints the simulation configuration as
 * actually instantiated by the models (not just as declared), so any
 * drift between documentation and code is caught here.
 */

#include <fstream>
#include <iostream>

#include "bench_util.hh"
#include "cpu/cpu_config.hh"
#include "mem/cache_config.hh"
#include "util/json_writer.hh"

using namespace rest;

namespace
{

void
jsonCache(util::JsonWriter &w, const char *key,
          const mem::CacheConfig &cfg)
{
    w.key(key);
    w.beginObject();
    w.field("size_bytes", std::uint64_t(cfg.sizeBytes));
    w.field("assoc", cfg.assoc);
    w.field("latency_cycles", std::uint64_t(cfg.latency));
    w.field("block_bytes", cfg.blockSize);
    w.field("mshrs", cfg.numMshrs);
    w.field("mshr_targets", cfg.mshrTargets);
    w.field("write_buffer_entries", cfg.writeBufferEntries);
    w.endObject();
}

void
writeJson(const bench::Options &opt, const cpu::CpuConfig &core,
          const mem::DramConfig &dram)
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
    w.field("figure", "tab2");
    w.key("core");
    w.beginObject();
    w.field("fetch_width", core.fetchWidth);
    w.field("issue_width", core.issueWidth);
    w.field("writeback_width", core.writebackWidth);
    w.field("iq_entries", core.iqEntries);
    w.field("rob_entries", core.robEntries);
    w.field("lq_entries", core.lqEntries);
    w.field("sq_entries", core.sqEntries);
    w.field("mem_ports", core.memPorts);
    w.field("alu_units", core.aluUnits);
    w.field("fp_units", core.fpUnits);
    w.field("muldiv_units", core.mulDivUnits);
    w.field("mispredict_penalty", std::uint64_t(core.mispredictPenalty));
    w.endObject();
    jsonCache(w, "l1i", mem::CacheConfig::l1i());
    jsonCache(w, "l1d", mem::CacheConfig::l1d());
    jsonCache(w, "l2", mem::CacheConfig::l2());
    w.key("dram");
    w.beginObject();
    w.field("access_latency", std::uint64_t(dram.accessLatency));
    w.field("service_period", std::uint64_t(dram.servicePeriod));
    w.endObject();
    w.endObject();
    out << "\n";
    std::cout << "\nresults: " << opt.jsonPath << "\n";
}

void
printCache(const char *label, const mem::CacheConfig &cfg)
{
    std::cout << "  " << label << ": " << cfg.sizeBytes / 1024
              << "kB, " << cfg.assoc << "-way, " << cfg.latency
              << " cycles, " << cfg.blockSize << "B blocks, LRU, "
              << cfg.numMshrs << " " << cfg.mshrTargets
              << "-entry MSHRs";
    if (cfg.writeBufferEntries)
        std::cout << ", " << cfg.writeBufferEntries
                  << "-entry write buffer";
    std::cout << ", no prefetch\n";
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = bench::parseOptions(argc, argv, "tab2");
    bench::installGlobalTrace(opt);

    cpu::CpuConfig core;
    mem::DramConfig dram;

    std::cout << "===========================================\n"
              << "Table II: simulation base configuration\n"
              << "===========================================\n"
              << "Core (out-of-order):\n"
              << "  Frequency: 2 GHz (1 tick = 1 cycle)\n"
              << "  BPred: TAGE, 1+12 components ("
              << "8k-entry bimodal + 12x1k tagged ~ 31k total" << ")\n"
              << "  Fetch: " << core.fetchWidth << " wide, "
              << core.iqEntries << "-entry IQ\n"
              << "  Issue: " << core.issueWidth << " wide, "
              << core.robEntries << "-entry ROB\n"
              << "  Writeback: " << core.writebackWidth << " wide, "
              << core.lqEntries << "-entry LQ, " << core.sqEntries
              << "-entry SQ\n"
              << "  FUs: " << core.memPorts << " mem ports, "
              << core.aluUnits << " ALUs, " << core.fpUnits
              << " FP, " << core.mulDivUnits << " mul/div\n"
              << "  Mispredict penalty: " << core.mispredictPenalty
              << " cycles\n"
              << "Memory:\n";
    printCache("L1-I", mem::CacheConfig::l1i());
    printCache("L1-D", mem::CacheConfig::l1d());
    printCache("L2  ", mem::CacheConfig::l2());
    std::cout << "  DRAM: DDR3-like, " << dram.accessLatency
              << "-cycle access (~55 ns at 2 GHz), service period "
              << dram.servicePeriod << " cycles\n"
              << "REST additions (paper Fig. 4):\n"
              << "  1 token bit per granule per L1-D line\n"
              << "  fill-path token detector (comparator)\n"
              << "  token configuration register (privileged)\n";
    writeJson(opt, core, dram);
    return 0;
}
