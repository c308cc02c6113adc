/**
 * @file
 * Release-time calendar of the O3 core's issue queue.
 *
 * Any issued entry frees its IQ slot, so the slots are anonymous and
 * only the multiset of their release cycles matters: dispatch waits for
 * the earliest release, and issue replaces that release with a later
 * one. The earliest release therefore never decreases, which lets the
 * multiset live in a calendar: per-cycle slot counts in a power-of-two
 * ring anchored at the earliest release, plus a short overflow list for
 * releases past the ring's end. Replacing the earliest release is O(1);
 * finding the next one scans forward over empty cycles, which are paid
 * for once each as simulated time passes.
 */

#ifndef REST_CPU_IQ_CALENDAR_HH
#define REST_CPU_IQ_CALENDAR_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace rest::cpu
{

/** Multiset of IQ slot release cycles with a non-decreasing minimum. */
class IqCalendar
{
  public:
    /** Cycles the ring covers from the earliest release onwards. */
    static constexpr unsigned ringSize = 512;

    /** @param entries IQ slots, all free at cycle 0. */
    explicit IqCalendar(unsigned entries) : entries_(entries)
    {
        rest_assert(entries > 0 && entries <= 0xffff,
                    "IQ size out of range: ", entries);
        overflow_.reserve(entries);
        reset();
    }

    /** Every slot free at cycle 0 again. */
    void
    reset()
    {
        count_.fill(0);
        count_[0] = static_cast<std::uint16_t>(entries_);
        inRing_ = entries_;
        earliest_ = 0;
        overflow_.clear();
        overflowMin_ = noCycle;
    }

    /** The earliest release: the cycle a dispatch waits for. */
    Cycles
    earliest()
    {
        if (count_[earliest_ & ringMask] == 0)
            advance();
        return earliest_;
    }

    /**
     * Replace one earliest release with 'free_at' (an issue slot is
     * taken by a newly dispatched op that releases it at 'free_at').
     * @param free_at must not be before earliest().
     */
    void
    replaceEarliest(Cycles free_at)
    {
        const Cycles now = earliest();
        --count_[now & ringMask];
        if (free_at - now < ringSize) {
            ++count_[free_at & ringMask];
        } else {
            --inRing_;
            overflow_.push_back(free_at);
            overflowMin_ = std::min(overflowMin_, free_at);
        }
    }

  private:
    static constexpr Cycles ringMask = ringSize - 1;
    static constexpr Cycles noCycle = ~Cycles(0);

    /**
     * Move the anchor to the next cycle holding a release. Ring
     * releases all lie within ringSize of the old anchor and overflow
     * ones beyond it, so the next release is the next occupied ring
     * cycle, or the overflow minimum once the ring is empty. Overflow
     * releases the new window reaches then move into the ring.
     */
    void
    advance()
    {
        if (inRing_ == 0) {
            earliest_ = overflowMin_;
        } else {
            do
                ++earliest_;
            while (count_[earliest_ & ringMask] == 0);
        }
        if (overflowMin_ - earliest_ >= ringSize)
            return;
        overflowMin_ = noCycle;
        for (std::size_t i = 0; i < overflow_.size();) {
            const Cycles t = overflow_[i];
            if (t - earliest_ < ringSize) {
                ++count_[t & ringMask];
                ++inRing_;
                overflow_[i] = overflow_.back();
                overflow_.pop_back();
            } else {
                overflowMin_ = std::min(overflowMin_, t);
                ++i;
            }
        }
    }

    /** Releases at each cycle of [earliest_, earliest_ + ringSize). */
    std::array<std::uint16_t, ringSize> count_{};
    /** Releases counted in the ring (the rest are in overflow_). */
    unsigned inRing_ = 0;
    Cycles earliest_ = 0;
    /** Releases at or past earliest_ + ringSize, unordered. */
    std::vector<Cycles> overflow_;
    Cycles overflowMin_ = noCycle;
    unsigned entries_;
};

} // namespace rest::cpu

#endif // REST_CPU_IQ_CALENDAR_HH
