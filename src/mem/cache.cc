#include "mem/cache.hh"

#include <algorithm>

#include "mem/coherence.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace rest::mem
{

const char *
mesiName(Mesi m)
{
    switch (m) {
      case Mesi::Invalid:
        return "I";
      case Mesi::Shared:
        return "S";
      case Mesi::Exclusive:
        return "E";
      case Mesi::Modified:
        return "M";
    }
    return "?";
}

Cache::Cache(const CacheConfig &cfg, MemoryDevice &below)
    : cfg_(cfg), below_(below), blockSize_(cfg.blockSize),
      stats_(cfg.name),
      hits_(stats_.addScalar("hits", "accesses that hit")),
      misses_(stats_.addScalar("misses", "accesses that missed")),
      writebacks_(stats_.addScalar("writebacks",
                                   "dirty lines written back")),
      mshrMerges_(stats_.addScalar("mshr_merges",
                                   "misses merged into in-flight MSHRs")),
      mshrStallCycles_(stats_.addScalar("mshr_stall_cycles",
                                        "cycles stalled on full MSHRs"))
{
    // A user-level configuration error (harness columns edit cache
    // configs), so a fatal: inside a sweep it fails only its job.
    if (!isPowerOfTwo(blockSize_))
        rest_fatal(cfg.name, ": block size must be pow2");
    if (cfg.assoc == 0 || cfg.sizeBytes % (blockSize_ * cfg.assoc) != 0)
        rest_fatal(cfg.name, ": cache geometry does not divide evenly");
    const std::size_t num_sets = cfg.sizeBytes / (blockSize_ * cfg.assoc);
    if (!isPowerOfTwo(num_sets))
        rest_fatal(cfg.name, ": number of sets must be pow2");
    blockShift_ = floorLog2(blockSize_);
    setMask_ = num_sets - 1;
    tags_.assign(num_sets * cfg.assoc, invalidAddr);
    lines_.assign(num_sets * cfg.assoc, Line{});
    mshrs_.reserve(cfg.numMshrs + 1);
}

bool
Cache::probe(Addr addr) const
{
    return findWay(addr) != noWay;
}

Cache::Line &
Cache::fillLine(Addr addr, Cycles now)
{
    Addr la = lineAddr(addr);
    const std::size_t base = setBase(addr);

    // Victim selection: first invalid way, else LRU.
    std::size_t victim = base;
    for (std::size_t w = base; w < base + cfg_.assoc; ++w) {
        if (tags_[w] == invalidAddr) {
            victim = w;
            break;
        }
        if (lines_[w].lastUsed < lines_[victim].lastUsed)
            victim = w;
    }

    Line &line = lines_[victim];
    if (const Addr old = tags_[victim]; old != invalidAddr) {
        onEvict(old, line, now);
        if (line.dirty) {
            ++writebacks_;
            if (trace::TraceSink *ts = trace::sink();
                ts && ts->flagOn(trace::Flag::Cache, now)) {
                ts->instant(trace::Flag::Cache,
                            ts->trackFor(stats_.name()), "writeback",
                            now, "line", old);
            }
            // Writebacks drain through the write buffer off the
            // critical path; charge them to the level below for
            // bandwidth accounting only.
            below_.access(old, true, now);
        }
    }

    tags_[victim] = la;
    line.dirty = false;
    line.tokenBits = 0;
    line.mesi = Mesi::Invalid;
    line.lastUsed = ++useCounter_;
    onFill(la, line, now);
    return line;
}

Mesi
Cache::coherenceMissSnoop(Addr line_addr, bool is_write, Cycles now)
{
    if (!bus_)
        return Mesi::Invalid;
    return bus_->requestLine(*this, line_addr, is_write, now);
}

void
Cache::coherenceWriteHit(Line &line, Addr line_addr, Cycles now)
{
    if (!bus_)
        return;
    if (line.mesi == Mesi::Shared)
        bus_->upgrade(*this, line_addr, now);
    line.mesi = Mesi::Modified;
}

Mesi
Cache::snoopShared(Addr line_addr, Cycles now)
{
    Line *line = findLine(line_addr);
    if (!line)
        return Mesi::Invalid;
    const Mesi prior = line->mesi;
    if (prior == Mesi::Modified) {
        // Flush: the requester fills from below, so our copy's data —
        // and any deferred token values — must reach it first.
        onCoherenceFlush(line_addr, *line, now);
        if (line->dirty) {
            ++writebacks_;
            below_.access(line_addr, true, now);
            line->dirty = false;
        }
    }
    line->mesi = Mesi::Shared;
    return prior;
}

Mesi
Cache::snoopInvalidate(Addr line_addr, Cycles now)
{
    Line *line = findLine(line_addr);
    if (!line)
        return Mesi::Invalid;
    const Mesi prior = line->mesi;
    // Full eviction semantics: token write-out via onEvict, then the
    // dirty write-back, then the line is gone.
    onEvict(line_addr, *line, now);
    if (line->dirty) {
        ++writebacks_;
        below_.access(line_addr, true, now);
    }
    *line = Line{};
    tags_[static_cast<std::size_t>(line - lines_.data())] = invalidAddr;
    return prior;
}

Mesi
Cache::mesiState(Addr addr) const
{
    const Line *line = findLine(addr);
    return line ? line->mesi : Mesi::Invalid;
}

Cycles
Cache::resolveMiss(Addr line_addr, Cycles now)
{
    // Prune completed fetches; note the earliest of the rest, and an
    // in-flight fetch of the same line.
    std::size_t live = 0;
    Cycles earliest = ~Cycles(0);
    Cycles merged = 0;
    bool in_flight = false;
    for (const Mshr &m : mshrs_) {
        if (m.readyAt <= now)
            continue;
        mshrs_[live++] = m;
        earliest = std::min(earliest, m.readyAt);
        if (m.line == line_addr) {
            in_flight = true;
            merged = m.readyAt;
        }
    }
    mshrs_.resize(live);

    trace::TraceSink *ts = trace::sink();
    const bool traced = ts && ts->flagOn(trace::Flag::Cache, now);

    // Merge with an in-flight fetch of the same line.
    if (in_flight) {
        ++mshrMerges_;
        if (traced) {
            ts->instant(trace::Flag::Cache, ts->trackFor(stats_.name()),
                        "mshr_merge", now, "line", line_addr);
        }
        return merged;
    }

    // All MSHRs busy: stall until the earliest one frees.
    Cycles start = now;
    if (live >= cfg_.numMshrs) {
        mshrStallCycles_ += earliest - now;
        if (traced) {
            ts->complete(trace::Flag::Cache,
                         ts->trackFor(stats_.name()), "mshr_stall",
                         now, earliest, "line", line_addr);
        }
        start = earliest;
    }

    Cycles ready = below_.access(line_addr, false, start + cfg_.latency);
    mshrs_.push_back({line_addr, ready});
    return ready;
}

Cycles
Cache::access(Addr addr, bool is_write, Cycles now)
{
    if (Line *line = findLine(addr)) {
        lastHit_ = true;
        ++hits_;
        line->lastUsed = ++useCounter_;
        if (is_write) {
            line->dirty = true;
            coherenceWriteHit(*line, lineAddr(addr), now);
        }
        // A "hit" on a line whose fill is still in flight waits for
        // the data (MSHR target merge).
        if (line->readyAt > now) {
            ++mshrMerges_;
            return line->readyAt;
        }
        return now + cfg_.latency;
    }

    lastHit_ = false;
    ++misses_;
    // Snoop before the fill so a remote Modified copy lands in the
    // level below (and its token values in memory) first.
    Mesi fill_state = coherenceMissSnoop(lineAddr(addr), is_write, now);
    Cycles ready = resolveMiss(lineAddr(addr), now);
    if (trace::TraceSink *ts = trace::sink();
        ts && ts->flagOn(trace::Flag::Cache, now)) {
        ts->complete(trace::Flag::Cache, ts->trackFor(stats_.name()),
                     "fill", now, ready, "line", lineAddr(addr));
        REST_DPRINTF(trace::Flag::Cache, now, stats_.name().c_str(),
                     is_write ? "store" : "load", " miss addr=0x",
                     std::hex, addr, std::dec, " ready=", ready);
    }
    Line &line = fillLine(addr, ready);
    line.readyAt = ready;
    line.mesi = fill_state;
    if (is_write)
        line.dirty = true;
    return ready;
}

void
Cache::flushAll()
{
    for (std::size_t w = 0; w < tags_.size(); ++w) {
        if (tags_[w] != invalidAddr) {
            onEvict(tags_[w], lines_[w], 0);
            if (lines_[w].dirty)
                ++writebacks_;
        }
        tags_[w] = invalidAddr;
        lines_[w] = Line{};
    }
    mshrs_.clear();
}

} // namespace rest::mem
