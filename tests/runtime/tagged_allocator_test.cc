/**
 * Unit tests for the pointer-tagging allocator models: MTE granule
 * tags and pauth signatures, at the allocator/policy level (no
 * system, no timing).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "runtime/mte_allocator.hh"
#include "runtime/pauth_allocator.hh"

namespace rest::runtime
{

namespace
{

class TaggedAllocTest : public ::testing::Test
{
  protected:
    OpEmitter
    emitter()
    {
        q.clear();
        return OpEmitter(q, AddressMap::runtimeTextBase, false);
    }

    /** Fault marked on any op emitted by the last call? */
    isa::FaultKind
    emittedFault() const
    {
        for (const auto &op : q)
            if (op.fault != isa::FaultKind::None)
                return op.fault;
        return isa::FaultKind::None;
    }

    mem::GuestMemory memory;
    isa::OpQueue q;
};

} // namespace

TEST_F(TaggedAllocTest, MtePointersCarryNonZeroTags)
{
    MteAllocator alloc(memory, 42);
    auto em = emitter();
    Addr p = alloc.malloc(64, em);
    EXPECT_NE(MteAllocator::pointerTag(p), 0u);
    // The canonical payload is tagged to match the pointer.
    EXPECT_EQ(alloc.checkAccess(p, 8), isa::FaultKind::None);
    EXPECT_EQ(alloc.canonical(p), p & MteAllocator::addrMask);
    EXPECT_EQ(alloc.allocationSize(p), 64u);
}

TEST_F(TaggedAllocTest, MteAdjacentAllocationsDifferInTag)
{
    MteAllocator alloc(memory, 42);
    auto em = emitter();
    Addr a = alloc.malloc(64, em);
    Addr b = alloc.malloc(64, em);
    // Left-neighbour exclusion: a's tag never equals b's, so the
    // first out-of-bounds granule always mismatches.
    EXPECT_NE(MteAllocator::pointerTag(a), MteAllocator::pointerTag(b));
    EXPECT_NE(alloc.checkAccess(a + 64, 8), isa::FaultKind::None);
}

TEST_F(TaggedAllocTest, MteFreeRetagsAndCatchesDoubleFree)
{
    MteAllocator alloc(memory, 7);
    auto em = emitter();
    Addr p = alloc.malloc(32, em);
    alloc.free(p, em);
    // Dangling access: the granule was re-randomised away from p's
    // tag.
    EXPECT_EQ(alloc.checkAccess(p, 8),
              isa::FaultKind::MteTagMismatch);
    // Double free faults through the emitted op stream.
    auto em2 = emitter();
    alloc.free(p, em2);
    EXPECT_EQ(emittedFault(), isa::FaultKind::MteTagMismatch);
}

TEST_F(TaggedAllocTest, MteUntaggedRegionsPassUntaggedPointers)
{
    MteAllocator alloc(memory, 7);
    // Stack/global addresses carry tag 0 and were never coloured.
    EXPECT_EQ(alloc.checkAccess(AddressMap::stackTop - 64, 8),
              isa::FaultKind::None);
    EXPECT_EQ(alloc.checkAccess(AddressMap::globalsBase, 8),
              isa::FaultKind::None);
}

TEST_F(TaggedAllocTest, MteTagTableEdges)
{
    MteAllocator alloc(memory, 42);
    auto em = emitter();
    const Addr a = alloc.malloc(40, em); // granules 0..2 of the heap
    const Addr b = alloc.malloc(16, em); // granule 3, the heap's end
    const Addr ca = alloc.canonical(a), cb = alloc.canonical(b);
    ASSERT_EQ(ca, AddressMap::heapBase);
    ASSERT_EQ(cb, ca + 48);
    const Addr end = cb + 16;
    const Addr a_tag = a & ~MteAllocator::addrMask;
    const Addr b_tag = b & ~MteAllocator::addrMask;
    auto tagged = [](Addr canon, Addr tag) { return canon | tag; };

    // Below heapBase: tag 0, so untagged pointers pass and tagged
    // ones mismatch.
    EXPECT_EQ(alloc.granuleTag(ca - 1), 0u);
    EXPECT_EQ(alloc.granuleTag(ca - MteAllocator::granuleBytes), 0u);
    EXPECT_EQ(alloc.granuleTag(0), 0u);
    EXPECT_EQ(alloc.checkAccess(ca - 16, 16), isa::FaultKind::None);
    EXPECT_EQ(alloc.checkAccess(tagged(ca - 16, a_tag), 8),
              isa::FaultKind::MteTagMismatch);

    // Past the tagged region: tag 0 as well, up to the top of the
    // 48-bit address space.
    EXPECT_EQ(alloc.granuleTag(end), 0u);
    EXPECT_EQ(alloc.granuleTag(end + (Addr(1) << 30)), 0u);
    EXPECT_EQ(alloc.granuleTag(MteAllocator::addrMask), 0u);
    EXPECT_EQ(alloc.checkAccess(end, 8), isa::FaultKind::None);
    EXPECT_EQ(alloc.checkAccess(tagged(end, b_tag), 8),
              isa::FaultKind::MteTagMismatch);

    // Across granule boundaries: inside one allocation it passes; into
    // the neighbour, out of the heap or into it from below, it does
    // not.
    EXPECT_EQ(alloc.granuleTag(ca + 47), alloc.granuleTag(ca));
    EXPECT_EQ(alloc.checkAccess(a + 8, 16), isa::FaultKind::None);
    EXPECT_EQ(alloc.checkAccess(a + 40, 16),
              isa::FaultKind::MteTagMismatch);
    EXPECT_EQ(alloc.checkAccess(b + 8, 16),
              isa::FaultKind::MteTagMismatch);
    EXPECT_EQ(alloc.checkAccess(ca - 8, 16),
              isa::FaultKind::MteTagMismatch);
    EXPECT_EQ(alloc.checkAccess(tagged(ca - 8, a_tag), 16),
              isa::FaultKind::MteTagMismatch);
    // A zero-size access checks one byte's granule.
    EXPECT_EQ(alloc.checkAccess(b + 15, 0), isa::FaultKind::None);
}

TEST_F(TaggedAllocTest, PauthPointersCarryUniqueSignatures)
{
    PauthAllocator alloc(memory, 99);
    auto em = emitter();
    Addr a = alloc.malloc(64, em);
    Addr b = alloc.malloc(64, em);
    EXPECT_NE(PauthAllocator::pointerPac(a), 0u);
    EXPECT_NE(PauthAllocator::pointerPac(b), 0u);
    EXPECT_NE(PauthAllocator::pointerPac(a),
              PauthAllocator::pointerPac(b));
    EXPECT_EQ(alloc.liveSignatures(), 2u);
    EXPECT_EQ(alloc.checkAccess(a, 8), isa::FaultKind::None);
    EXPECT_EQ(alloc.allocationSize(a), 64u);
}

TEST_F(TaggedAllocTest, PauthStrippedPointerIntoHeapFails)
{
    PauthAllocator alloc(memory, 99);
    auto em = emitter();
    Addr a = alloc.malloc(64, em);
    const Addr raw = a & ((Addr(1) << 48) - 1);
    EXPECT_EQ(alloc.checkAccess(raw, 8),
              isa::FaultKind::PauthCheckFailed);
    // Unsigned pointers outside heap data (stack) stay valid.
    EXPECT_EQ(alloc.checkAccess(AddressMap::stackTop - 64, 8),
              isa::FaultKind::None);
}

TEST_F(TaggedAllocTest, PauthFreeRevokesForever)
{
    PauthAllocator alloc(memory, 5);
    auto em = emitter();
    Addr a = alloc.malloc(48, em);
    alloc.free(a, em);
    EXPECT_EQ(alloc.liveSignatures(), 0u);
    EXPECT_EQ(alloc.checkAccess(a, 8),
              isa::FaultKind::PauthCheckFailed);

    // Recycle the chunk: the new pointer has a fresh signature, the
    // stale one still fails.
    auto em2 = emitter();
    Addr b = alloc.malloc(48, em2);
    EXPECT_EQ(b & ((Addr(1) << 48) - 1), a & ((Addr(1) << 48) - 1));
    EXPECT_NE(PauthAllocator::pointerPac(b),
              PauthAllocator::pointerPac(a));
    EXPECT_EQ(alloc.checkAccess(b, 8), isa::FaultKind::None);
    EXPECT_EQ(alloc.checkAccess(a, 8),
              isa::FaultKind::PauthCheckFailed);
}

TEST_F(TaggedAllocTest, PauthLiveSignaturesMatchAcceptedPacs)
{
    PauthAllocator alloc(memory, 17);
    std::vector<Addr> live, freed;
    for (unsigned i = 0; i < 400; ++i) {
        auto em = emitter();
        live.push_back(alloc.malloc(16 * (1 + i % 5), em));
        if (i % 3 == 2) {
            // Free from the middle, so chunks recycle out of order.
            const std::size_t victim = (i * 7) % live.size();
            alloc.free(live[victim], em);
            freed.push_back(live[victim]);
            live.erase(live.begin() + long(victim));
        }
        ASSERT_EQ(emittedFault(), isa::FaultKind::None) << i;
    }

    // The PACs checkAccess accepts on a heap address are exactly the
    // live ones, one per live allocation.
    std::set<std::uint16_t> live_pacs;
    for (Addr p : live) {
        live_pacs.insert(PauthAllocator::pointerPac(p));
        EXPECT_EQ(alloc.checkAccess(p, 8), isa::FaultKind::None);
    }
    std::size_t accepted = 0;
    for (unsigned pac = 1; pac <= 0xffff; ++pac) {
        const Addr p = AddressMap::heapBase |
                       (Addr(pac) << PauthAllocator::pacShift);
        if (alloc.checkAccess(p, 8) == isa::FaultKind::None) {
            ++accepted;
            EXPECT_TRUE(live_pacs.count(std::uint16_t(pac))) << pac;
        }
    }
    EXPECT_EQ(live_pacs.size(), live.size());
    EXPECT_EQ(alloc.liveSignatures(), live.size());
    EXPECT_EQ(accepted, alloc.liveSignatures());

    // A revoked PAC fails, unless a later signing reissued it.
    std::size_t revoked = 0;
    for (Addr p : freed) {
        if (live_pacs.count(PauthAllocator::pointerPac(p)))
            continue;
        ++revoked;
        EXPECT_EQ(alloc.checkAccess(p, 8),
                  isa::FaultKind::PauthCheckFailed);
    }
    EXPECT_GT(revoked, 0u);
}

TEST_F(TaggedAllocTest, PauthDoubleFreeFaults)
{
    PauthAllocator alloc(memory, 5);
    auto em = emitter();
    Addr a = alloc.malloc(48, em);
    alloc.free(a, em);
    auto em2 = emitter();
    alloc.free(a, em2);
    EXPECT_EQ(emittedFault(), isa::FaultKind::PauthCheckFailed);
}

} // namespace rest::runtime
