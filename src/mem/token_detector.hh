/**
 * @file
 * The REST token detector (paper Fig. 4): examines a cache line's
 * contents as it is filled into the L1 data cache and reports which
 * token-width granules hold the token value. Decomposable into narrow
 * compares per fill beat in real hardware; here one call per fill,
 * which reads the line once and compares it granule by granule.
 */

#ifndef REST_MEM_TOKEN_DETECTOR_HH
#define REST_MEM_TOKEN_DETECTOR_HH

#include <array>
#include <bit>
#include <cstdint>

#include "core/token.hh"
#include "mem/guest_memory.hh"
#include "util/bit_utils.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace rest::mem
{

/** Fill-path comparator against the token configuration register. */
class TokenDetector
{
  public:
    TokenDetector(const GuestMemory &memory,
                  const core::TokenConfigRegister &tcr)
        : memory_(memory), tcr_(tcr)
    {}

    /**
     * Scan one cache line for token granules.
     * @param line_addr block-aligned address of the incoming line.
     * @param block_size line size in bytes (64 in Table II).
     * @return bitmask with bit i set iff granule i of the line equals
     *         the token value.
     */
    std::uint8_t
    scan(Addr line_addr, unsigned block_size) const
    {
        const unsigned g = tcr_.granule();
        std::array<std::uint8_t, maxLineBytes> line;
        rest_assert(block_size <= line.size(), "line of ", block_size,
                    " bytes exceeds the detector's ", line.size());
        memory_.readBytes(line_addr, {line.data(), block_size});
        const core::TokenValue &token = tcr_.token();
        std::uint8_t mask = 0;
        for (unsigned i = 0; i * g < block_size; ++i) {
            if (token.matches({line.data() + i * g, g}))
                mask |= static_cast<std::uint8_t>(1u << i);
        }
        return mask;
    }

    /** Granule index of an address within its line. */
    unsigned
    granuleIndex(Addr addr, unsigned block_size) const
    {
        const auto shift =
            static_cast<unsigned>(std::countr_zero(tcr_.granule()));
        return static_cast<unsigned>((addr & (block_size - 1)) >> shift);
    }

    const core::TokenConfigRegister &configRegister() const
    { return tcr_; }

  private:
    /** Widest line with one token bit per granule: 8 bits (the
     *  line's tokenBits) of the widest token. */
    static constexpr unsigned maxLineBytes = 8 * core::maxTokenBytes;

    const GuestMemory &memory_;
    const core::TokenConfigRegister &tcr_;
};

} // namespace rest::mem

#endif // REST_MEM_TOKEN_DETECTOR_HH
