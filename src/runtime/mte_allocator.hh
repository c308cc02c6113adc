/**
 * @file
 * MTE-style lock-and-key granule tagging (ARM MTE, SPARC ADI family):
 * every 16-byte heap granule carries a 4-bit tag, malloc colours each
 * allocation with a fresh non-zero tag (never the left neighbour's,
 * so adjacent overflows always mismatch), the returned pointer carries
 * the tag in bits 56..59, and every load/store compares pointer tag
 * against granule tag in hardware. free() re-randomises the payload
 * tags, so dangling accesses mismatch until the chunk is reallocated
 * with — by the 4-bit birthday — a possibly colliding tag: the
 * documented tag-reuse escape.
 *
 * Like REST, no program instrumentation is required: the allocator
 * plus the hardware check protect uninstrumented code. Untagged
 * regions (stack, globals) carry tag 0 and untagged pointers pass —
 * stack overflows are out of scope for heap tagging.
 */

#ifndef REST_RUNTIME_MTE_ALLOCATOR_HH
#define REST_RUNTIME_MTE_ALLOCATOR_HH

#include <mutex>
#include <vector>

#include "mem/guest_memory.hh"
#include "runtime/access_policy.hh"
#include "runtime/allocator.hh"

namespace rest::runtime
{

/** The memory-tagging allocator + its hardware check predicate. */
class MteAllocator : public Allocator, public AccessPolicy
{
  public:
    static constexpr unsigned granuleBytes = 16;
    static constexpr unsigned tagShift = 56;
    static constexpr Addr addrMask = (Addr(1) << 48) - 1;

    MteAllocator(mem::GuestMemory &memory, std::uint64_t seed)
        : memory_(memory), heap_(AddressMap::heapBase, granuleBytes),
          lcg_(seed * 6364136223846793005ull + 1442695040888963407ull)
    {}

    Addr malloc(std::size_t size, OpEmitter &em) override;
    void free(Addr payload, OpEmitter &em) override;

    const char *name() const override { return "mte"; }

    std::size_t
    allocationSize(Addr payload) const override
    {
        auto it = heap_.live.find(payload & addrMask);
        return it == heap_.live.end() ? 0 : it->second.size;
    }

    std::size_t liveAllocations() const override
    { return heap_.live.size(); }

    const HeapState &heapState() const override { return heap_; }

    // ---- AccessPolicy ----
    isa::FaultKind checkAccess(Addr ea, unsigned size) const override;
    Addr canonical(Addr ea) const override { return ea & addrMask; }

    /** Tag of a pointer value (bits 56..59). */
    static std::uint8_t pointerTag(Addr ptr)
    { return (ptr >> tagShift) & 0xf; }

    /** Current tag of the granule containing canonical address
     *  'canon'; 0 outside the tagged heap. */
    std::uint8_t
    granuleTag(Addr canon) const
    {
        // Below heapBase the subtraction wraps past any table size.
        const Addr g = (canon - AddressMap::heapBase) / granuleBytes;
        return g < tags_.size() ? tags_[g] : 0;
    }

  private:
    /** Draw a non-zero tag different from both exclusions. */
    std::uint8_t drawTag(std::uint8_t exclude_a, std::uint8_t exclude_b);

    /**
     * Retag [canon, canon+bytes) and emit one tag store (the STG
     * analogue: a granule-wide store in the timing stream) per
     * granule.
     */
    void setTagRange(Addr canon, std::size_t bytes, std::uint8_t tag,
                     OpEmitter &em);

    mem::GuestMemory &memory_;
    /** Serialises the malloc/free service paths (free lists, live
     *  map, tag table) for host-threaded callers; see
     *  tests/runtime/allocator_stress_test.cc. */
    std::mutex mu_;
    HeapState heap_;
    /** Granule tags, indexed by granule from AddressMap::heapBase;
     *  grows with the heap's bump cursor. */
    std::vector<std::uint8_t> tags_;
    std::uint64_t lcg_;
};

} // namespace rest::runtime

#endif // REST_RUNTIME_MTE_ALLOCATOR_HH
