/**
 * @file
 * Load/store queue model with the REST matching-logic extensions of
 * paper Fig. 5 and Table I ("LSQ" column).
 *
 * Store-to-load forwarding normally lets a load take its value from an
 * older in-flight store. Arm and disarm are store-like but must never
 * forward their (implicit) values — the token is a secret. The REST
 * LSQ therefore:
 *   - raises a privileged exception when a load would forward from an
 *     in-flight arm (TokenForward),
 *   - raises when a store overlaps an in-flight arm's granule,
 *   - raises when a disarm is inserted while another disarm to the
 *     same granule is still in flight,
 *   - stores no data value with arm/disarm entries (the value is
 *     implicit and known by the cache).
 */

#ifndef REST_CPU_LSQ_HH
#define REST_CPU_LSQ_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/exceptions.hh"
#include "util/types.hh"

namespace rest::cpu
{

/** Result of presenting a load to the store queue. */
struct LoadLsqCheck
{
    /** Load takes its value entirely from an older store: 1 cycle. */
    bool forwarded = false;
    /**
     * Load partially overlaps an older normal store; it must wait for
     * that store's write to complete before accessing the cache.
     */
    Cycles mustWaitUntil = 0;
    /** The load hit an in-flight arm: privileged REST exception. */
    core::ViolationKind violation = core::ViolationKind::None;
};

/** Store-queue timing/semantics model. */
class Lsq
{
  public:
    /** One in-flight store-like op (store, arm, or disarm). */
    struct StoreEntry
    {
        std::uint64_t seq = 0;
        Addr addr = 0;
        unsigned size = 0;
        bool isArm = false;
        bool isDisarm = false;
        /** Cycle the write completes at the cache (entry then frees). */
        Cycles writeCompleteAt = 0;
    };

    explicit Lsq(unsigned sq_entries = 32)
        : sqEntries_(sq_entries),
          ring_(std::bit_ceil(std::max(sq_entries, 1u)))
    {}

    /** Drop entries whose writes completed before 'now'. */
    void
    prune(Cycles now)
    {
        while (count_ != 0 && at(0).writeCompleteAt <= now) {
            head_ = (head_ + 1) & (ring_.size() - 1);
            --count_;
        }
    }

    /**
     * Check a load of [addr, addr+size) against older in-flight
     * store-like entries, youngest-first (paper Fig. 5 logic).
     */
    LoadLsqCheck
    checkLoad(std::uint64_t load_seq, Addr addr, unsigned size) const
    {
        LoadLsqCheck res;
        for (std::size_t i = count_; i-- != 0;) {
            const StoreEntry &e = at(i);
            if (e.seq >= load_seq)
                continue;
            if (!overlaps(addr, size, e.addr, e.size))
                continue;
            if (e.isArm) {
                // The load would "hit" the in-flight arm: the match
                // logic detects the line-address + offset match and
                // raises instead of forwarding the secret.
                res.violation = core::ViolationKind::TokenForward;
                return res;
            }
            if (e.isDisarm) {
                // Disarm zeroes its granule; the value (zero) is
                // implicit, but the entry carries no data to forward,
                // so the load waits for the write to reach the cache.
                res.mustWaitUntil =
                    std::max(res.mustWaitUntil, e.writeCompleteAt);
                return res;
            }
            if (covers(e.addr, e.size, addr, size)) {
                res.forwarded = true;
            } else {
                // Partial overlap: not forwardable.
                res.mustWaitUntil =
                    std::max(res.mustWaitUntil, e.writeCompleteAt);
            }
            return res; // youngest matching entry decides
        }
        return res;
    }

    /**
     * Check the REST rules for inserting a store-like op (Table I):
     * stores fault when they overlap an in-flight arm; disarms fault
     * when another disarm to the same granule is in flight.
     */
    core::ViolationKind
    checkInsert(Addr addr, unsigned size, bool is_arm,
                bool is_disarm) const
    {
        for (std::size_t i = 0; i != count_; ++i) {
            const StoreEntry &e = at(i);
            if (!overlaps(addr, size, e.addr, e.size))
                continue;
            if (is_disarm && e.isDisarm)
                return core::ViolationKind::DisarmUnarmed;
            if (!is_arm && !is_disarm && e.isArm)
                return core::ViolationKind::TokenForward;
        }
        return core::ViolationKind::None;
    }

    /**
     * Insert a store-like entry (after checkInsert passed). The SQ
     * drains to the cache in program order, so an entry cannot
     * complete before its elders: completion times are made monotone
     * at insert.
     */
    void
    insert(StoreEntry entry)
    {
        if (count_ == ring_.size())
            grow();
        if (count_ != 0) {
            entry.writeCompleteAt = std::max(
                entry.writeCompleteAt, at(count_ - 1).writeCompleteAt);
        }
        at(count_++) = entry;
    }

    /** Number of in-flight entries. */
    std::size_t occupancy() const { return count_; }

    /** Is the SQ structurally full? */
    bool full() const { return count_ >= sqEntries_; }

    /** First cycle at which an entry will free (valid when full()). */
    Cycles
    earliestFree() const
    {
        // In-order drain: the oldest entry frees first.
        return count_ == 0 ? 0 : at(0).writeCompleteAt;
    }

  private:
    /** The i-th oldest in-flight entry. */
    StoreEntry &
    at(std::size_t i)
    {
        return ring_[(head_ + i) & (ring_.size() - 1)];
    }

    const StoreEntry &
    at(std::size_t i) const
    {
        return ring_[(head_ + i) & (ring_.size() - 1)];
    }

    /**
     * Double the ring. The core never holds more than sqEntries_
     * (dispatch stalls on full()), but direct users may insert
     * without pruning.
     */
    void
    grow()
    {
        std::vector<StoreEntry> bigger(2 * ring_.size());
        for (std::size_t i = 0; i != count_; ++i)
            bigger[i] = at(i);
        ring_.swap(bigger);
        head_ = 0;
    }

    static bool
    overlaps(Addr a1, unsigned s1, Addr a2, unsigned s2)
    {
        return a1 < a2 + s2 && a2 < a1 + s1;
    }

    /** Does [a1, a1+s1) fully cover [a2, a2+s2)? */
    static bool
    covers(Addr a1, unsigned s1, Addr a2, unsigned s2)
    {
        return a1 <= a2 && a2 + s2 <= a1 + s1;
    }

    unsigned sqEntries_;
    /**
     * In-flight entries, oldest at head_, in a power-of-two ring so
     * that wrapping is a mask.
     */
    std::vector<StoreEntry> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace rest::cpu

#endif // REST_CPU_LSQ_HH
