/**
 * @file
 * A classic set-associative, write-back, write-allocate cache timing
 * model with MSHRs and a write buffer, in the style of gem5's classic
 * caches. Latency-oracle organisation: access() returns the cycle at
 * which the request completes; lower levels are consulted recursively
 * on a miss.
 */

#ifndef REST_MEM_CACHE_HH
#define REST_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/cache_config.hh"
#include "mem/dram.hh"
#include "util/bit_utils.hh"
#include "util/page_allocator.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace rest::mem
{

class CoherenceBus;

/**
 * MESI coherence state of one cache line. Meaningful only for caches
 * attached to a CoherenceBus (mem/coherence.hh); detached caches —
 * the historical uniprocessor hierarchy — never read or write it.
 */
enum class Mesi : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

const char *mesiName(Mesi m);

/**
 * One cache level. Subclassed by RestL1Cache, which adds the per-line
 * token bits and the fill-path token detector.
 */
class Cache : public MemoryDevice
{
  public:
    /**
     * Per-line metadata of a resident way. Data contents live in
     * GuestMemory; the line's address is its tag, kept in a separate
     * array (Cache::tags_).
     */
    struct Line
    {
        std::uint64_t lastUsed = 0;
        /** Cycle the line's data arrives (in-flight fill tracking). */
        Cycles readyAt = 0;
        bool dirty = false;
        /**
         * REST token bits: one bit per token granule in the line
         * (1 bit for 64B tokens, 2 for 32B, 4 for 16B). Unused by
         * plain caches; maintained by RestL1Cache.
         */
        std::uint8_t tokenBits = 0;
        /** MESI state (bus-attached caches only). */
        Mesi mesi = Mesi::Invalid;
    };

    Cache(const CacheConfig &cfg, MemoryDevice &below);

    /**
     * Timing access.
     * @param addr byte address (any alignment; a single access is
     *        assumed not to straddle a block).
     * @param is_write true for stores (and arm/disarm writes).
     * @param now cycle the request is issued.
     * @return completion cycle.
     */
    Cycles access(Addr addr, bool is_write, Cycles now) override;

    /** Did the most recent access() hit in this level? */
    bool lastWasHit() const { return lastHit_; }

    /** Block-align an address. */
    Addr lineAddr(Addr addr) const { return alignDown(addr, blockSize_); }

    /** Is the line currently resident? (no LRU side effects) */
    bool probe(Addr addr) const;

    /**
     * Join a snooping coherence bus. Detached (the default) the cache
     * behaves exactly as the historical uniprocessor model; attached,
     * misses and write-hit upgrades broadcast on the bus and remote
     * snoops may downgrade or invalidate resident lines.
     */
    void attachBus(CoherenceBus *bus) { bus_ = bus; }

    /** Coherence state of the line holding 'addr' (Invalid: absent).
     *  No LRU side effects; test/stat support. */
    Mesi mesiState(Addr addr) const;

    // --- snoop interface (CoherenceBus only) -------------------------
    /**
     * Remote read of 'line_addr': a Modified copy writes its data (and
     * any deferred token values, via onCoherenceFlush) back so the
     * requester can fill from below; M/E copies downgrade to Shared.
     * @return the state held before the snoop (Invalid: not resident).
     */
    Mesi snoopShared(Addr line_addr, Cycles now);

    /**
     * Remote write of 'line_addr': the copy is invalidated outright.
     * Takes the full eviction path (onEvict token write-out + dirty
     * write-back), so token-bearing lines leave their token values in
     * memory for the requester's fill-path detector to find.
     * @return the state held before the snoop (Invalid: not resident).
     */
    Mesi snoopInvalidate(Addr line_addr, Cycles now);

    /** Invalidate and write back everything (test support). */
    void flushAll();

    /**
     * Forget in-flight fills (line readyAt, outstanding MSHRs) and
     * cascade below. See MemoryDevice::resetTiming(): used at sampled-
     * mode segment boundaries where the cycle clock restarts at 0.
     */
    void resetTiming() override;

    unsigned blockSize() const { return blockSize_; }
    const stats::StatGroup &statGroup() const { return stats_; }
    stats::StatGroup &statGroup() { return stats_; }

  protected:
    /** Locate a resident line; nullptr on miss. */
    Line *
    findLine(Addr addr)
    {
        const std::size_t way = findWay(addr);
        return way == noWay ? nullptr : &lines_[way];
    }

    const Line *
    findLine(Addr addr) const
    {
        return const_cast<Cache *>(this)->findLine(addr);
    }

    /**
     * Install a line, evicting the LRU victim.
     * @return reference to the installed line.
     */
    Line &fillLine(Addr addr, Cycles now);

    /**
     * Hook: called after a line is installed (token detector).
     * 'now' is the cycle the fill lands (tracing; flushAll passes 0).
     */
    virtual void onFill(Addr /*line_addr*/, Line & /*line*/,
                        Cycles /*now*/) { }

    /** Hook: called when a valid line is evicted (token write-out). */
    virtual void onEvict(Addr /*line_addr*/, Line & /*line*/,
                         Cycles /*now*/) { }

    /**
     * Hook: a Modified line is flushed by a remote-read snoop but
     * stays resident (M -> S). The outgoing coherence packet must
     * carry any deferred token values (RestL1Cache writes them out),
     * so the requester's fill still sees the tokens.
     */
    virtual void onCoherenceFlush(Addr /*line_addr*/, Line & /*line*/,
                                  Cycles /*now*/) { }

    /**
     * Resolve a miss through the MSHRs: merge with an outstanding
     * fetch of the same line if one exists, otherwise allocate an
     * MSHR (stalling for a free one if necessary) and fetch from
     * below.
     * @return cycle at which the line's data is available.
     */
    Cycles resolveMiss(Addr line_addr, Cycles now);

    /** First way of the set 'addr' maps to, in tags_ and lines_. */
    std::size_t
    setBase(Addr addr) const
    {
        return static_cast<std::size_t>((addr >> blockShift_) & setMask_) *
               cfg_.assoc;
    }

    /** Way holding 'addr''s line (an index into tags_ and lines_), or
     *  noWay. */
    std::size_t
    findWay(Addr addr) const
    {
        const Addr la = lineAddr(addr);
        const std::size_t base = setBase(addr);
        const Addr *tags = tags_.data() + base;
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            if (tags[w] == la)
                return base + w;
        }
        return noWay;
    }

    static constexpr std::size_t noWay = ~std::size_t(0);

    /**
     * Broadcast a miss on the bus (no-op when detached) and return the
     * MESI state the incoming line should be installed in: Modified
     * for write misses, Shared/Exclusive for read misses depending on
     * whether any remote copy survived the snoop.
     */
    Mesi coherenceMissSnoop(Addr line_addr, bool is_write, Cycles now);

    /** Write hit: upgrade a Shared line to Modified via the bus;
     *  E -> M is silent. No-op when detached. */
    void coherenceWriteHit(Line &line, Addr line_addr, Cycles now);

    CacheConfig cfg_;
    MemoryDevice &below_;
    CoherenceBus *bus_ = nullptr;
    unsigned blockSize_;
    unsigned blockShift_;
    /** Number of sets minus one (the set count is a power of two). */
    Addr setMask_;
    /**
     * Every way's line address, set by set (assoc ways each);
     * invalidAddr marks an invalid way. Kept apart from the rest of
     * the line state so a lookup scans one contiguous run of tags.
     * Both arrays are mapped from the kernel (util/page_allocator.hh)
     * so building and dropping machines does not grow the heap.
     */
    std::vector<Addr, PageAllocator<Addr>> tags_;
    /** Every way's line state, indexed like tags_. */
    std::vector<Line, PageAllocator<Line>> lines_;
    std::uint64_t useCounter_ = 0;
    bool lastHit_ = false;

    /** An outstanding line fetch. */
    struct Mshr
    {
        Addr line;
        /** Cycle the line's data is ready (the MSHR frees). */
        Cycles readyAt;
    };
    /**
     * Outstanding line fetches, one per line, unordered. A fetch that
     * waited for a full table does not take over the MSHR it waited
     * for: that entry stays until it completes, so the table can hold
     * more than numMshrs entries, and later misses in the same window
     * wait for the same release.
     */
    std::vector<Mshr> mshrs_;

    stats::StatGroup stats_;
    stats::Scalar &hits_;
    stats::Scalar &misses_;
    stats::Scalar &writebacks_;
    stats::Scalar &mshrMerges_;
    stats::Scalar &mshrStallCycles_;
};

} // namespace rest::mem

#endif // REST_MEM_CACHE_HH
