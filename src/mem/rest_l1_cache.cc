#include "mem/rest_l1_cache.hh"

#include <array>

#include "util/logging.hh"
#include "util/trace.hh"

namespace rest::mem
{

RestL1Cache::RestL1Cache(const CacheConfig &cfg, MemoryDevice &below,
                         GuestMemory &memory,
                         const core::TokenConfigRegister &tcr)
    : Cache(cfg, below), memory_(memory), detector_(memory, tcr),
      tcr_(tcr),
      tokenFills_(stats_.addScalar("token_fills",
          "line fills in which the detector found a token")),
      tokenEvictions_(stats_.addScalar("token_evictions",
          "evictions of lines with token bits set")),
      armHits_(stats_.addScalar("arm_hits", "arm ops that hit")),
      armMisses_(stats_.addScalar("arm_misses", "arm ops that missed")),
      disarmOps_(stats_.addScalar("disarm_ops", "disarm ops executed")),
      tokenViolations_(stats_.addScalar("token_violations",
          "accesses that touched a token granule")),
      tokenCoherenceFlushes_(stats_.addScalar("token_coherence_flushes",
          "remote-read snoops that flushed deferred token values"))
{
}

std::uint8_t
RestL1Cache::coverMask(Addr addr, unsigned size) const
{
    const unsigned first = detector_.granuleIndex(addr, blockSize_);
    const unsigned last =
        detector_.granuleIndex(addr + size - 1, blockSize_);
    // Bits first..last; none if the range wraps past the line's end.
    return static_cast<std::uint8_t>(((2u << last) - 1) &
                                     ~((1u << first) - 1));
}

std::pair<Cache::Line *, Cycles>
RestL1Cache::ensureLine(Addr addr, bool is_write, Cycles now)
{
    if (Line *line = findLine(addr)) {
        lastHit_ = true;
        ++hits_;
        line->lastUsed = ++useCounter_;
        if (is_write)
            coherenceWriteHit(*line, lineAddr(addr), now);
        if (line->readyAt > now) {
            ++mshrMerges_;
            return {line, line->readyAt};
        }
        return {line, now + cfg_.latency};
    }
    lastHit_ = false;
    ++misses_;
    Mesi fill_state = coherenceMissSnoop(lineAddr(addr), is_write, now);
    Cycles ready = resolveMiss(lineAddr(addr), now);
    Line &line = fillLine(addr, ready);
    line.readyAt = ready;
    line.mesi = fill_state;
    return {&line, ready};
}

RestAccess
RestL1Cache::loadAccess(Addr addr, unsigned size, Cycles now)
{
    auto [line, ready] = ensureLine(addr, false, now);
    RestAccess res;
    res.hit = lastHit_;
    res.completeAt = ready;
    if (line->tokenBits & coverMask(addr, size)) {
        ++tokenViolations_;
        res.violation = core::ViolationKind::TokenAccess;
        traceViolation("load", addr, ready);
    }
    return res;
}

RestAccess
RestL1Cache::storeAccess(Addr addr, unsigned size, Cycles now)
{
    auto [line, ready] = ensureLine(addr, true, now);
    RestAccess res;
    res.hit = lastHit_;
    res.completeAt = ready;
    if (line->tokenBits & coverMask(addr, size)) {
        ++tokenViolations_;
        res.violation = core::ViolationKind::TokenAccess;
        traceViolation("store", addr, ready);
        return res;
    }
    line->dirty = true;
    return res;
}

void
RestL1Cache::traceViolation(const char *kind, Addr addr, Cycles now)
{
    trace::TraceSink *ts = trace::sink();
    if (!ts || !ts->flagOn(trace::Flag::TokenDetect, now))
        return;
    ts->instant(trace::Flag::TokenDetect, ts->trackFor(stats_.name()),
                "token_violation", now, "addr", addr);
    ts->message(now, stats_.name().c_str(),
                trace::detail::traceConcat(
                    kind, " hit armed granule addr=0x", std::hex, addr,
                    std::dec));
}

RestAccess
RestL1Cache::armAccess(Addr addr, Cycles now)
{
    rest_assert(isAligned(addr, tcr_.granule()),
                "arm address must be granule-aligned at the cache");
    auto [line, ready] = ensureLine(addr, true, now);
    RestAccess res;
    res.hit = lastHit_;
    if (res.hit)
        ++armHits_;
    else
        ++armMisses_;
    // Setting the token bit completes in a single cycle on a hit: the
    // token value itself is not written until eviction (paper §III-B).
    line->tokenBits |= coverMask(addr, 1);
    line->dirty = true;
    res.completeAt = ready;
    return res;
}

RestAccess
RestL1Cache::disarmAccess(Addr addr, Cycles now)
{
    rest_assert(isAligned(addr, tcr_.granule()),
                "disarm address must be granule-aligned at the cache");
    auto [line, ready] = ensureLine(addr, true, now);
    RestAccess res;
    res.hit = lastHit_;
    ++disarmOps_;
    std::uint8_t mask = coverMask(addr, 1);
    if (!(line->tokenBits & mask)) {
        res.violation = core::ViolationKind::DisarmUnarmed;
        res.completeAt = ready;
        return res;
    }
    // Clear the granule: involves all data banks, one extra cycle.
    line->tokenBits &= static_cast<std::uint8_t>(~mask);
    line->dirty = true;
    memory_.fill(addr, 0, tcr_.granule());
    res.completeAt = ready + 1;
    return res;
}

bool
RestL1Cache::tokenBitSet(Addr addr) const
{
    const Line *line = findLine(addr);
    if (!line)
        return false;
    const unsigned idx = detector_.granuleIndex(addr, blockSize_);
    return (line->tokenBits >> idx) & 1u;
}

void
RestL1Cache::onFill(Addr line_addr, Line &line, Cycles now)
{
    line.tokenBits = detector_.scan(line_addr, blockSize_);
    if (line.tokenBits) {
        ++tokenFills_;
        if (trace::TraceSink *ts = trace::sink();
            ts && ts->flagOn(trace::Flag::TokenDetect, now)) {
            ts->instant(trace::Flag::TokenDetect,
                        ts->trackFor(stats_.name()), "token_detect",
                        now, "token_bits", line.tokenBits);
            REST_DPRINTF(trace::Flag::TokenDetect, now,
                         stats_.name().c_str(),
                         "fill detected token(s) line=0x", std::hex,
                         line_addr, std::dec, " bits=",
                         unsigned(line.tokenBits));
        }
    }
}

void
RestL1Cache::onEvict(Addr line_addr, Line &line, Cycles now)
{
    if (!line.tokenBits)
        return;
    ++tokenEvictions_;
    if (trace::TraceSink *ts = trace::sink();
        ts && ts->flagOn(trace::Flag::TokenDetect, now)) {
        ts->instant(trace::Flag::TokenDetect,
                    ts->trackFor(stats_.name()), "token_evict", now,
                    "token_bits", line.tokenBits);
    }
    // Fill the token value into the outgoing packet (Table I): armed
    // granules leave the cache carrying the token value.
    const unsigned g = tcr_.granule();
    auto token = tcr_.token().bytes();
    for (unsigned i = 0; i * g < blockSize_; ++i) {
        if ((line.tokenBits >> i) & 1u)
            memory_.writeBytes(line_addr + i * g, token);
    }
}

void
RestL1Cache::onCoherenceFlush(Addr line_addr, Line &line, Cycles now)
{
    // A remote read snoops our Modified copy (M -> S). The line stays
    // resident with its token bits, but the flushed packet must carry
    // the deferred token values so the requester's fill-path detector
    // re-arms its own bits — cross-core accesses to an armed granule
    // trap exactly like local ones.
    if (!line.tokenBits)
        return;
    ++tokenCoherenceFlushes_;
    const unsigned g = tcr_.granule();
    auto token = tcr_.token().bytes();
    for (unsigned i = 0; i * g < blockSize_; ++i) {
        if ((line.tokenBits >> i) & 1u)
            memory_.writeBytes(line_addr + i * g, token);
    }
    if (trace::TraceSink *ts = trace::sink();
        ts && ts->flagOn(trace::Flag::TokenDetect, now)) {
        ts->instant(trace::Flag::TokenDetect,
                    ts->trackFor(stats_.name()), "token_coherence_flush",
                    now, "token_bits", line.tokenBits);
    }
}

} // namespace rest::mem
