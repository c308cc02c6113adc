#include "runtime/mte_allocator.hh"

#include <algorithm>

#include "util/trace.hh"

namespace rest::runtime
{

std::uint8_t
MteAllocator::drawTag(std::uint8_t exclude_a, std::uint8_t exclude_b)
{
    // 4-bit LCG draw, non-zero, avoiding both exclusions. At most 15
    // candidates exist and at least 13 remain, so this terminates.
    for (;;) {
        lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
        std::uint8_t t = (lcg_ >> 60) & 0xf;
        if (t != 0 && t != exclude_a && t != exclude_b)
            return t;
    }
}

void
MteAllocator::setTagRange(Addr canon, std::size_t bytes,
                          std::uint8_t tag, OpEmitter &em)
{
    rest_assert(canon >= AddressMap::heapBase, "mte: tagging below heap");
    const Addr end = canon + bytes;
    const std::size_t granules =
        (end - AddressMap::heapBase + granuleBytes - 1) / granuleBytes;
    if (tags_.size() < granules)
        tags_.resize(granules, 0);
    for (Addr g = alignDown(canon, granuleBytes); g < end;
         g += granuleBytes) {
        tags_[(g - AddressMap::heapBase) / granuleBytes] = tag;
        // The STG analogue: one granule-wide store in the op stream.
        em.store(g, granuleBytes);
    }
}

Addr
MteAllocator::malloc(std::size_t size, OpEmitter &em)
{
    std::lock_guard<std::mutex> lock(mu_);
    em.setSource(isa::OpSource::Allocator);
    ++heap_.mallocCalls;

    std::size_t payload_bytes =
        alignUp(std::max<std::size_t>(size, 1), granuleBytes);
    int cls = SizeClassTable::classIndex(payload_bytes);

    // Front-end bookkeeping mirrors the sibling allocators.
    em.aluChain(6);
    em.load(scratch1, AddressMap::heapMetaBase + 8 * cls);

    Chunk chunk;
    auto &fl = heap_.freeLists[payload_bytes];
    if (!fl.empty()) {
        chunk = fl.back();
        fl.pop_back();
        em.load(scratch2, chunk.metaAddr);
        em.store(AddressMap::heapMetaBase + 8 * cls);
    } else {
        chunk.base = heap_.carve(payload_bytes);
        chunk.chunkBytes = payload_bytes;
        chunk.sizeClass = cls;
        chunk.metaAddr = heap_.newMetaAddr();
        em.aluChain(3);
    }
    chunk.payload = chunk.base; // no redzones: tags are the fence
    chunk.size = size;

    // Colour the allocation. Excluding the left neighbour's tag makes
    // every adjacent overflow (linear or jumped) a guaranteed
    // mismatch; the right neighbour is whatever carve/reuse placed
    // there and keeps its own colour.
    std::uint8_t left = granuleTag(chunk.base - granuleBytes);
    std::uint8_t tag = drawTag(left, 0);
    em.aluChain(2); // IRG-style tag insertion arithmetic
    setTagRange(chunk.base, payload_bytes, tag, em);

    memory_.write(chunk.metaAddr, size, 8);
    em.store(chunk.metaAddr, 8);
    em.store(chunk.metaAddr + 8, 8);
    heap_.live[chunk.payload] = chunk;

    if (trace::TraceSink *ts = trace::sink();
        ts && ts->flagOn(trace::Flag::Alloc,
                         heap_.mallocCalls + heap_.freeCalls)) {
        REST_DPRINTF(trace::Flag::Alloc,
                     heap_.mallocCalls + heap_.freeCalls, "mte_alloc",
                     "malloc size=", size, " payload=0x", std::hex,
                     chunk.payload, std::dec, " tag=", unsigned(tag));
    }

    em.alu(isa::regRet, scratch1);
    return chunk.payload | (Addr(tag) << tagShift);
}

void
MteAllocator::free(Addr payload, OpEmitter &em)
{
    std::lock_guard<std::mutex> lock(mu_);
    em.setSource(isa::OpSource::Allocator);
    ++heap_.freeCalls;

    const Addr canon = canonical(payload);
    const std::uint8_t ptag = pointerTag(payload);

    em.aluChain(4);
    // The runtime's metadata probe is itself a checked access: a
    // stale pointer (double free, dangling free) carries a tag the
    // re-randomised granule no longer has.
    em.load(scratch1, canon, 8);

    auto it = heap_.live.find(canon);
    if (it == heap_.live.end() || ptag != granuleTag(canon)) {
        em.faultLast(isa::FaultKind::MteTagMismatch);
        return;
    }

    Chunk chunk = it->second;
    heap_.live.erase(it);

    // Re-randomise the payload tags (never back to the old colour):
    // every dangling access now mismatches, until the chunk is
    // recycled and the new colour may — 1 in ~14 — collide with the
    // stale pointer's.
    std::uint8_t fresh = drawTag(ptag, 0);
    std::size_t payload_bytes =
        alignUp(std::max<std::size_t>(chunk.size, 1), granuleBytes);
    setTagRange(canon, payload_bytes, fresh, em);

    em.store(chunk.metaAddr + 8, 8);
    heap_.freeLists[chunk.chunkBytes].push_back(chunk);
}

isa::FaultKind
MteAllocator::checkAccess(Addr ea, unsigned size) const
{
    const std::uint8_t ptag = pointerTag(ea);
    const Addr canon = ea & addrMask;
    const Addr last = canon + (size ? size : 1) - 1;
    for (Addr g = alignDown(canon, granuleBytes);
         g <= alignDown(last, granuleBytes); g += granuleBytes) {
        if (ptag != granuleTag(g))
            return isa::FaultKind::MteTagMismatch;
    }
    return isa::FaultKind::None;
}

} // namespace rest::runtime
