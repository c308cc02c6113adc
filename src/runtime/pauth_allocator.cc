#include "runtime/pauth_allocator.hh"

#include <algorithm>

namespace rest::runtime
{

namespace
{

/** 64-bit finalising mix (murmur3 fmix64). */
std::uint64_t
fmix64(std::uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

} // namespace

std::uint16_t
PauthAllocator::sign(Addr canon)
{
    // QARMA stand-in: keyed hash of (address, generation). A fresh
    // generation per signing means a recycled payload address never
    // reuses its revoked signature.
    for (;;) {
        ++generation_;
        auto pac = static_cast<std::uint16_t>(
            fmix64(canon ^ key_ ^
                   generation_ * 0x9e3779b97f4a7c15ull) >> 48);
        if (pac != 0 && !liveSigs_[pac])
            return pac;
    }
}

Addr
PauthAllocator::malloc(std::size_t size, OpEmitter &em)
{
    std::lock_guard<std::mutex> lock(mu_);
    em.setSource(isa::OpSource::Allocator);
    ++heap_.mallocCalls;

    std::size_t payload_bytes =
        alignUp(std::max<std::size_t>(size, 1), 16);
    int cls = SizeClassTable::classIndex(payload_bytes);

    em.aluChain(5);
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
    chunk.payload = chunk.base;
    chunk.size = size;

    const std::uint16_t pac = sign(chunk.payload);
    liveSigs_[pac] = true;
    ++liveCount_;
    sigByPayload_[chunk.payload] = pac;
    em.aluChain(2); // the PACGA-style signing arithmetic

    memory_.write(chunk.metaAddr, size, 8);
    em.store(chunk.metaAddr, 8);
    em.store(chunk.metaAddr + 8, 8);
    heap_.live[chunk.payload] = chunk;

    em.alu(isa::regRet, scratch1);
    return chunk.payload | (Addr(pac) << pacShift);
}

void
PauthAllocator::free(Addr payload, OpEmitter &em)
{
    std::lock_guard<std::mutex> lock(mu_);
    em.setSource(isa::OpSource::Allocator);
    ++heap_.freeCalls;

    const Addr canon = canonical(payload);
    const std::uint16_t pac = pointerPac(payload);

    em.aluChain(4);
    em.load(scratch1, canon, 8);

    auto it = heap_.live.find(canon);
    auto sig = sigByPayload_.find(canon);
    if (it == heap_.live.end() || pac == 0 ||
        sig == sigByPayload_.end() || sig->second != pac) {
        // Double free or forged pointer: the free gadget itself
        // authenticates its argument and traps.
        em.faultLast(isa::FaultKind::PauthCheckFailed);
        return;
    }

    // Revoke the signature: every dangling copy of this pointer now
    // fails authentication, recycled or not.
    liveSigs_[pac] = false;
    --liveCount_;
    sigByPayload_.erase(sig);

    Chunk chunk = it->second;
    heap_.live.erase(it);
    em.aluChain(2); // the AUT + strip arithmetic
    em.store(chunk.metaAddr + 8, 8);
    heap_.freeLists[chunk.chunkBytes].push_back(chunk);
}

isa::FaultKind
PauthAllocator::checkAccess(Addr ea, unsigned size) const
{
    (void)size;
    const std::uint16_t pac = pointerPac(ea);
    const Addr canon = ea & addrMask;
    if (pac == 0) {
        // Unsigned pointer: fine anywhere except into signed heap
        // data (a stripped/forged heap pointer).
        return inHeapData(canon) ? isa::FaultKind::PauthCheckFailed
                                 : isa::FaultKind::None;
    }
    return liveSigs_[pac] ? isa::FaultKind::None
                          : isa::FaultKind::PauthCheckFailed;
}

} // namespace rest::runtime
