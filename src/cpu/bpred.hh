/**
 * @file
 * A TAGE-style conditional branch predictor with a return address
 * stack, standing in for the L-TAGE configuration of Table II
 * (1 bimodal + 12 tagged components, ~31k entries total).
 */

#ifndef REST_CPU_BPRED_HH
#define REST_CPU_BPRED_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace rest::cpu
{

/** TAGE predictor: bimodal base + N geometric-history tagged tables. */
class TagePredictor
{
  public:
    static constexpr unsigned numTagged = 12;

    TagePredictor();

    /**
     * Predict the direction of a conditional branch.
     * @param pc branch PC.
     * @return predicted taken?
     */
    bool predict(Addr pc);

    /**
     * Train with the resolved outcome and update global history.
     * Must be called exactly once per predicted branch, in order.
     * @param pc branch PC.
     * @param taken actual direction.
     * @return true iff the prediction (recomputed pre-update) was
     *         correct.
     */
    bool update(Addr pc, bool taken);

    /** Record an unconditional control transfer in the history. */
    void recordUnconditional(Addr pc, bool taken = true);

  private:
    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        std::int8_t ctr = 0;   // signed 3-bit: >=0 predicts taken
        std::uint8_t useful = 0;
    };

    static constexpr unsigned bimodalBits = 13;  // 8k entries
    static constexpr unsigned taggedBits = 10;   // 1k entries each
    static constexpr unsigned tagBits = 11;

    /** Geometric history lengths, L-TAGE style (min 4, max 640). */
    static constexpr std::array<unsigned, numTagged> histLens = {
        4, 6, 10, 16, 25, 40, 64, 101, 160, 254, 403, 640,
    };

    /** Every table's index and tag for one branch, computed once and
     *  shared by lookup, update and allocate. */
    struct Indices
    {
        unsigned bimodal;
        std::array<std::uint16_t, numTagged> index;
        std::array<std::uint16_t, numTagged> tag;
    };

    Indices indices(Addr pc) const;

    /**
     * Shift one bit into the global history and into every table's
     * folded index and tag registers (each a circular-shifted CRC of
     * the table's last histLens[t] history bits, compressed to the
     * index or tag width): O(1) per table instead of re-folding the
     * whole history.
     */
    void pushHistory(bool bit);

    /** pushHistory's step for table T, with T's history length and
     *  out-bit positions as constants. */
    template <unsigned T>
    void pushTable(bool bit);

    /** Internal predict that reports provider component. */
    bool lookup(const Indices &ix, int &provider, int &alt_pred) const;

    void allocate(const Indices &ix, bool taken, int provider);

    std::vector<std::int8_t> bimodal_;
    std::array<std::vector<TaggedEntry>, numTagged> tagged_;
    std::array<std::uint32_t, numTagged> foldedIdx_{};
    std::array<std::uint32_t, numTagged> foldedTag_{};
    /**
     * Global history as a circular shift register (one bool per
     * branch), a power of two long so positions wrap with a mask.
     */
    static constexpr unsigned ghistLen = 1024;
    static_assert(std::has_single_bit(ghistLen));
    static_assert(histLens.back() < ghistLen);
    std::array<bool, ghistLen> ghist_{};
    unsigned ghistPos_ = 0;
    std::uint8_t useAltOnNa_ = 8;
};

/**
 * Full front-end predictor: TAGE for conditional direction, an
 * always-hit BTB abstraction for direct targets (our ISA encodes
 * targets in the instruction), and a return address stack for Ret.
 */
class BranchPredictor
{
  public:
    BranchPredictor() = default;

    /** Predict a conditional branch's direction. */
    bool predictConditional(Addr pc) { return tage_.predict(pc); }

    /**
     * Resolve a conditional branch.
     * @return true iff predicted correctly.
     */
    bool
    resolveConditional(Addr pc, bool taken)
    {
        bool correct = tage_.update(pc, taken);
        correct_ += correct;
        mispredicts_ += !correct;
        return correct;
    }

    /** Note a call: push the return address. */
    void
    pushReturn(Addr return_pc)
    {
        tage_.recordUnconditional(return_pc);
        if (ras_.size() < rasEntries)
            ras_.push_back(return_pc);
        else
            rasOverflows_++;
    }

    /**
     * Predict and pop for a return.
     * @param actual_target the architecturally correct target.
     * @return true iff the RAS predicted it (mispredict otherwise).
     */
    bool
    predictReturn(Addr actual_target)
    {
        tage_.recordUnconditional(actual_target);
        if (ras_.empty()) {
            ++mispredicts_;
            return false;
        }
        Addr predicted = ras_.back();
        ras_.pop_back();
        bool correct = predicted == actual_target;
        correct_ += correct;
        mispredicts_ += !correct;
        return correct;
    }

    std::uint64_t mispredicts() const { return mispredicts_; }
    std::uint64_t corrects() const { return correct_; }

  private:
    static constexpr std::size_t rasEntries = 32;

    TagePredictor tage_;
    std::vector<Addr> ras_;
    std::uint64_t mispredicts_ = 0;
    std::uint64_t correct_ = 0;
    std::uint64_t rasOverflows_ = 0;
};

} // namespace rest::cpu

#endif // REST_CPU_BPRED_HH
