/**
 * @file
 * CryptSan-style data-pointer authentication: malloc signs the
 * returned pointer with a 16-bit PAC (keyed hash of the payload
 * address and an allocation generation) placed in bits 48..63; every
 * load/store authenticates the pointer before the access; free
 * revokes the signature. A dangling pointer therefore fails
 * authentication forever — temporal protection is complete, even
 * after the chunk is recycled (the recycled allocation carries a new
 * generation, hence a new PAC). A stripped/forged raw pointer into
 * heap data carries no valid PAC and is caught.
 *
 * What this scheme cannot see: in-bounds-signature spatial overflows
 * (base + attacker offset still authenticates), so linear overflows
 * and redzone jumps pass, and untagged regions (stack, globals) are
 * out of scope. This mirrors the ARM PAC row of Table III:
 * "Targeted" spatial protection only.
 */

#ifndef REST_RUNTIME_PAUTH_ALLOCATOR_HH
#define REST_RUNTIME_PAUTH_ALLOCATOR_HH

#include <bitset>
#include <mutex>
#include <unordered_map>

#include "mem/guest_memory.hh"
#include "runtime/access_policy.hh"
#include "runtime/allocator.hh"

namespace rest::runtime
{

/** The pointer-authentication allocator + its check predicate. */
class PauthAllocator : public Allocator, public AccessPolicy
{
  public:
    static constexpr unsigned pacShift = 48;
    static constexpr Addr addrMask = (Addr(1) << 48) - 1;

    PauthAllocator(mem::GuestMemory &memory, std::uint64_t seed)
        : memory_(memory), heap_(AddressMap::heapBase, 16),
          key_(seed ^ 0x9e3779b97f4a7c15ull)
    {}

    Addr malloc(std::size_t size, OpEmitter &em) override;
    void free(Addr payload, OpEmitter &em) override;

    const char *name() const override { return "pauth"; }

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

    /** PAC field of a pointer value (bits 48..63). */
    static std::uint16_t pointerPac(Addr ptr)
    { return static_cast<std::uint16_t>(ptr >> pacShift); }

    /** Number of distinct live signatures (test support). */
    std::size_t liveSignatures() const { return liveCount_; }

  private:
    /** Sign a payload address: keyed, generation-salted, non-zero. */
    std::uint16_t sign(Addr canon);

    /** Is 'canon' inside the allocator-managed heap data region? */
    bool
    inHeapData(Addr canon) const
    {
        return canon >= AddressMap::heapBase &&
               canon < heap_.bumpCursor();
    }

    mem::GuestMemory &memory_;
    /** Serialises the malloc/free service paths (free lists, live
     *  map, signature tables) for host-threaded callers; see
     *  tests/runtime/allocator_stress_test.cc. */
    std::mutex mu_;
    HeapState heap_;
    /** One bit per PAC value: set while a live allocation carries
     *  it. sign() never returns a live PAC, so no PAC is carried by
     *  two live allocations at once. */
    std::bitset<std::size_t(1) << 16> liveSigs_;
    /** Number of set bits in liveSigs_. */
    std::size_t liveCount_ = 0;
    /** Canonical payload -> its current signature. */
    std::unordered_map<Addr, std::uint16_t> sigByPayload_;
    std::uint64_t key_;
    std::uint64_t generation_ = 0;
};

} // namespace rest::runtime

#endif // REST_RUNTIME_PAUTH_ALLOCATOR_HH
