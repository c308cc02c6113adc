#include "runtime/protection_scheme.hh"

#include <array>

#include "runtime/asan_allocator.hh"
#include "runtime/libc_allocator.hh"
#include "runtime/mte_allocator.hh"
#include "runtime/pauth_allocator.hh"
#include "runtime/rest_allocator.hh"

namespace rest::runtime
{

const char *
expectName(Expect e)
{
    switch (e) {
      case Expect::Caught:
        return "caught";
      case Expect::Missed:
        return "missed";
      case Expect::SeedDependent:
        return "seed-dependent";
    }
    return "?";
}

namespace
{

/** Baseline: glibc-style allocator, no detection anywhere. */
class PlainScheme : public ProtectionScheme
{
  public:
    const char *id() const override { return "plain"; }

    const char *
    description() const override
    {
        return "uninstrumented baseline (libc allocator, no checks)";
    }

    SchemeConfig baseConfig() const override
    { return SchemeConfig::plain(); }

    SchemeParts
    instantiate(const SchemeContext &ctx) const override
    {
        SchemeParts parts;
        parts.allocator = std::make_unique<LibcAllocator>(ctx.memory);
        return parts;
    }

    DetectionProfile declaredProfile() const override
    { return DetectionProfile{}; }

    HardwareCost
    hardwareCost() const override
    {
        return {"none", 0.0, "None"};
    }
};

/** ASan: shadow-memory checks compiled into the program. */
class AsanScheme : public ProtectionScheme
{
  public:
    const char *id() const override { return "asan"; }

    const char *
    description() const override
    {
        return "AddressSanitizer: shadow memory + redzones + "
               "compiler-inserted checks";
    }

    SchemeConfig baseConfig() const override
    { return SchemeConfig::asanFull(); }

    SchemeParts
    instantiate(const SchemeContext &ctx) const override
    {
        SchemeParts parts;
        parts.allocator = std::make_unique<AsanAllocator>(
            ctx.memory, ctx.scheme.quarantineBudget);
        return parts;
    }

    DetectionProfile
    declaredProfile() const override
    {
        DetectionProfile p;
        p.linearOverflow = Expect::Caught;
        // Redzone jumps and pointer forging land in valid memory:
        // ASan's documented spatial gap.
        p.uafQuarantined = Expect::Caught;
        p.doubleFree = Expect::Caught;
        p.stackOverflow = Expect::Caught;
        p.uninstrumentedLibrary = Expect::Caught; // interceptors
        // Shadow state is process-global: the poisoning a free on one
        // thread leaves behind is visible to every other thread.
        p.crossThreadUaf = Expect::Caught;
        p.racyDoubleFree = Expect::Caught;
        p.handoffOverflow = Expect::Caught;
        return p;
    }

    HardwareCost
    hardwareCost() const override
    {
        // 1 shadow byte per 8 data bytes = 1 bit per byte.
        return {"software shadow memory, 1 bit per data byte", 0.125,
                "High (software)", /*usesShadowSpace=*/true};
    }
};

/** REST: token redzones checked by the memory system. */
class RestScheme : public ProtectionScheme
{
  public:
    const char *id() const override { return "rest"; }

    const char *
    description() const override
    {
        return "REST: 64-byte token redzones detected in the cache "
               "hierarchy";
    }

    SchemeConfig baseConfig() const override
    { return SchemeConfig::restFull(); }

    SchemeParts
    instantiate(const SchemeContext &ctx) const override
    {
        SchemeParts parts;
        parts.allocator = std::make_unique<RestAllocator>(
            ctx.memory, ctx.engine, ctx.scheme.quarantineBudget,
            ctx.scheme.sprinkleTokensEvery);
        return parts;
    }

    DetectionProfile
    declaredProfile() const override
    {
        DetectionProfile p;
        p.linearOverflow = Expect::Caught;
        // Jumping the redzone or re-deriving a pointer lands beyond
        // the tokens: the paper's documented spatial gaps.
        p.uafQuarantined = Expect::Caught;
        p.uafRecycled = Expect::Missed; // "until realloc"
        p.doubleFree = Expect::Caught;
        p.stackOverflow = Expect::Caught;
        p.uninstrumentedLibrary = Expect::Caught; // HW sees every access
        // Tokens live in memory, detection in every private L1's fill
        // path: a coherence transfer of an armed line re-detects the
        // token on the consuming core (mem/coherence.hh).
        p.crossThreadUaf = Expect::Caught;
        p.racyDoubleFree = Expect::Caught;
        p.handoffOverflow = Expect::Caught;
        return p;
    }

    HardwareCost
    hardwareCost() const override
    {
        // 1 detection bit per 64-byte L1-D line.
        return {"1 tag bit per 64B L1-D granule", 1.0 / 64.0,
                "Low (cache tag bit)"};
    }
};

/** MTE-style lock-and-key granule tagging. */
class MteScheme : public ProtectionScheme
{
  public:
    const char *id() const override { return "mte"; }

    const char *
    description() const override
    {
        return "memory tagging: 4-bit lock-and-key tags on 16-byte "
               "granules";
    }

    SchemeConfig baseConfig() const override
    { return SchemeConfig::mte(); }

    SchemeParts
    instantiate(const SchemeContext &ctx) const override
    {
        SchemeParts parts;
        auto alloc =
            std::make_unique<MteAllocator>(ctx.memory, ctx.seed);
        parts.policy = alloc.get();
        parts.allocator = std::move(alloc);
        return parts;
    }

    DetectionProfile
    declaredProfile() const override
    {
        DetectionProfile p;
        p.linearOverflow = Expect::Caught;
        p.jumpOverRedzone = Expect::Caught; // whole chunk is coloured
        // a + (b - a) reconstructs b bit-exactly, tag included: the
        // re-derived pointer authenticates against b's own granules.
        p.pointerDiffJump = Expect::Missed;
        p.pointerCorruption = Expect::Caught; // stripped tag != colour
        p.uafQuarantined = Expect::Caught;    // retag on free
        p.uafRecycled = Expect::SeedDependent; // 4-bit birthday
        p.doubleFree = Expect::Caught;
        p.stackOverflow = Expect::Missed; // stack untagged
        p.uninstrumentedLibrary = Expect::Caught; // HW-checked
        // A handed-off pointer carries its tag; free's re-colouring
        // and the granule tags are global state, so cross-thread
        // misuse mismatches just like local misuse.
        p.crossThreadUaf = Expect::Caught;
        p.racyDoubleFree = Expect::Caught;
        p.handoffOverflow = Expect::Caught;
        return p;
    }

    HardwareCost
    hardwareCost() const override
    {
        // 4 tag bits per 16 data bytes.
        return {"4-bit tag per 16B granule", 4.0 / 16.0,
                "Medium (tag storage + check)"};
    }
};

/** CryptSan/ARM-PAC-style data-pointer authentication. */
class PauthScheme : public ProtectionScheme
{
  public:
    const char *id() const override { return "pauth"; }

    const char *
    description() const override
    {
        return "pointer authentication: 16-bit PAC signed by malloc, "
               "revoked by free";
    }

    SchemeConfig baseConfig() const override
    { return SchemeConfig::pauth(); }

    SchemeParts
    instantiate(const SchemeContext &ctx) const override
    {
        SchemeParts parts;
        auto alloc =
            std::make_unique<PauthAllocator>(ctx.memory, ctx.seed);
        parts.policy = alloc.get();
        parts.allocator = std::move(alloc);
        return parts;
    }

    DetectionProfile
    declaredProfile() const override
    {
        DetectionProfile p;
        // A signed pointer authenticates regardless of the offset
        // arithmetic applied below bit 48: spatial gaps everywhere
        // except forged/stripped pointers.
        p.pointerCorruption = Expect::Caught;
        p.uafQuarantined = Expect::Caught;
        p.uafRecycled = Expect::Caught; // revocation is permanent
        p.doubleFree = Expect::Caught;
        // Stack/globals unsigned, library copies carry valid PACs.
        // Signature revocation is global, so stale pointers fail on
        // any thread — but a live, correctly signed pointer indexes
        // out of bounds freely (no spatial check to hand off).
        p.crossThreadUaf = Expect::Caught;
        p.racyDoubleFree = Expect::Caught;
        return p;
    }

    HardwareCost
    hardwareCost() const override
    {
        return {"PAC unit in the pipeline, no memory metadata", 0.0,
                "Low (crypto unit)"};
    }
};

const PlainScheme plainScheme;
const AsanScheme asanScheme;
const RestScheme restScheme;
const MteScheme mteScheme;
const PauthScheme pauthScheme;

} // namespace

const std::vector<const ProtectionScheme *> &
allSchemes()
{
    static const std::vector<const ProtectionScheme *> all = {
        &plainScheme, &asanScheme, &restScheme, &mteScheme,
        &pauthScheme,
    };
    return all;
}

const ProtectionScheme *
findScheme(const std::string &id)
{
    for (const ProtectionScheme *ps : allSchemes())
        if (id == ps->id())
            return ps;
    return nullptr;
}

const ProtectionScheme &
schemeForConfig(const SchemeConfig &cfg)
{
    switch (cfg.allocator) {
      case AllocatorKind::Libc:
        return plainScheme;
      case AllocatorKind::Asan:
        return asanScheme;
      case AllocatorKind::Rest:
        return restScheme;
      case AllocatorKind::Mte:
        return mteScheme;
      case AllocatorKind::Pauth:
        return pauthScheme;
    }
    return plainScheme;
}

bool
parseSchemeSpec(const std::string &spec, SchemeConfig &out,
                std::string &error)
{
    // Split "<base>+suffix+suffix".
    std::string base = spec;
    std::vector<std::string> suffixes;
    if (std::size_t plus = spec.find('+'); plus != std::string::npos) {
        base = spec.substr(0, plus);
        std::size_t start = plus + 1;
        while (start <= spec.size()) {
            std::size_t next = spec.find('+', start);
            if (next == std::string::npos) {
                suffixes.push_back(spec.substr(start));
                break;
            }
            suffixes.push_back(spec.substr(start, next - start));
            start = next + 1;
        }
    }

    const ProtectionScheme *ps = findScheme(base);
    if (!ps) {
        error = "unknown scheme \"" + base + "\"";
        return false;
    }
    out = ps->baseConfig();

    for (const std::string &s : suffixes) {
        if (!out.asanAccessChecks) {
            error = "suffix \"+" + s + "\" requires a scheme with " +
                    "compiled-in access checks (asan), not \"" + base +
                    "\"";
            return false;
        }
        if (s == "elide")
            out.elideRedundantChecks = true;
        else if (s == "hoist")
            out.hoistLoopChecks = true;
        else if (s == "coalesce")
            out.coalesceChecks = true;
        else {
            error = "unknown scheme suffix \"+" + s + "\"";
            return false;
        }
    }
    return true;
}

} // namespace rest::runtime
