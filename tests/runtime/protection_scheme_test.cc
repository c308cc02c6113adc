/**
 * The ProtectionScheme registry: lookup, per-backend contracts, and
 * the scheme-spec parser the bench harnesses compose over.
 */

#include <gtest/gtest.h>

#include "core/rest_engine.hh"
#include "runtime/protection_scheme.hh"
#include "util/random.hh"

namespace rest::runtime
{

TEST(ProtectionSchemeRegistry, AllSchemesRegisteredInOrder)
{
    const auto &all = allSchemes();
    ASSERT_EQ(all.size(), 5u);
    EXPECT_STREQ(all[0]->id(), "plain");
    EXPECT_STREQ(all[1]->id(), "asan");
    EXPECT_STREQ(all[2]->id(), "rest");
    EXPECT_STREQ(all[3]->id(), "mte");
    EXPECT_STREQ(all[4]->id(), "pauth");
}

TEST(ProtectionSchemeRegistry, FindByName)
{
    for (const ProtectionScheme *ps : allSchemes())
        EXPECT_EQ(findScheme(ps->id()), ps);
    EXPECT_EQ(findScheme("hardbound"), nullptr);
    EXPECT_EQ(findScheme(""), nullptr);
}

TEST(ProtectionSchemeRegistry, SchemeForConfigRoundTrips)
{
    for (const ProtectionScheme *ps : allSchemes())
        EXPECT_EQ(&schemeForConfig(ps->baseConfig()), ps)
            << ps->id();
}

TEST(ProtectionSchemeRegistry, DescriptionsAreNonEmpty)
{
    for (const ProtectionScheme *ps : allSchemes())
        EXPECT_NE(std::string(ps->description()), "") << ps->id();
}

TEST(ProtectionSchemeRegistry, InstantiateProvidesAllocator)
{
    mem::GuestMemory memory;
    core::TokenConfigRegister tcr;
    Xoshiro256ss rng(7);
    tcr.writePrivileged(
        core::TokenValue::generate(rng, core::TokenWidth::Bytes64),
        core::RestMode::Secure);
    core::RestEngine engine(tcr);

    for (const ProtectionScheme *ps : allSchemes()) {
        SchemeConfig cfg = ps->baseConfig();
        SchemeParts parts =
            ps->instantiate({memory, engine, cfg, 0xc0ffee});
        ASSERT_NE(parts.allocator, nullptr) << ps->id();
        EXPECT_NE(std::string(parts.allocator->name()), "");
        // Only the pointer-tagging backends install a policy, and it
        // must alias the allocator object (shared tag state).
        const bool tagging = std::string(ps->id()) == "mte" ||
                             std::string(ps->id()) == "pauth";
        EXPECT_EQ(parts.policy != nullptr, tagging) << ps->id();
        if (parts.policy) {
            EXPECT_EQ(dynamic_cast<const Allocator *>(parts.policy),
                      parts.allocator.get());
        }
    }
}

TEST(ProtectionSchemeRegistry, HardwareCostsAreDeclared)
{
    for (const ProtectionScheme *ps : allSchemes()) {
        HardwareCost cost = ps->hardwareCost();
        EXPECT_FALSE(cost.summary.empty()) << ps->id();
        EXPECT_GE(cost.metadataBitsPerDataByte, 0.0) << ps->id();
    }
    // MTE's 4 bits per 16 bytes dwarf REST's 1 bit per 64 bytes.
    EXPECT_GT(findScheme("mte")->hardwareCost().metadataBitsPerDataByte,
              findScheme("rest")->hardwareCost()
                  .metadataBitsPerDataByte);
    // Only ASan keeps metadata in the program's own address space;
    // REST/MTE metadata is cache tags / out-of-band tag storage.
    for (const ProtectionScheme *ps : allSchemes())
        EXPECT_EQ(ps->hardwareCost().usesShadowSpace,
                  std::string(ps->id()) == "asan")
            << ps->id();
}

TEST(ParseSchemeSpec, BareIds)
{
    SchemeConfig cfg;
    std::string err;
    ASSERT_TRUE(parseSchemeSpec("rest", cfg, err)) << err;
    EXPECT_EQ(cfg.allocator, AllocatorKind::Rest);
    ASSERT_TRUE(parseSchemeSpec("mte", cfg, err)) << err;
    EXPECT_EQ(cfg.allocator, AllocatorKind::Mte);
    ASSERT_TRUE(parseSchemeSpec("pauth", cfg, err)) << err;
    EXPECT_EQ(cfg.allocator, AllocatorKind::Pauth);
    ASSERT_TRUE(parseSchemeSpec("plain", cfg, err)) << err;
    EXPECT_EQ(cfg.allocator, AllocatorKind::Libc);
}

TEST(ParseSchemeSpec, AsanSuffixesCompose)
{
    SchemeConfig cfg;
    std::string err;
    ASSERT_TRUE(parseSchemeSpec("asan+elide+hoist+coalesce", cfg, err))
        << err;
    EXPECT_EQ(cfg.allocator, AllocatorKind::Asan);
    EXPECT_TRUE(cfg.elideRedundantChecks);
    EXPECT_TRUE(cfg.hoistLoopChecks);
    EXPECT_TRUE(cfg.coalesceChecks);

    ASSERT_TRUE(parseSchemeSpec("asan+hoist", cfg, err)) << err;
    EXPECT_TRUE(cfg.hoistLoopChecks);
    EXPECT_FALSE(cfg.elideRedundantChecks);
    EXPECT_FALSE(cfg.coalesceChecks);
}

TEST(ParseSchemeSpec, Errors)
{
    SchemeConfig cfg;
    std::string err;
    EXPECT_FALSE(parseSchemeSpec("softbound", cfg, err));
    EXPECT_NE(err.find("unknown scheme"), std::string::npos);

    err.clear();
    EXPECT_FALSE(parseSchemeSpec("asan+vectorize", cfg, err));
    EXPECT_NE(err.find("unknown scheme suffix"), std::string::npos);

    // Suffixes require compiled-in access checks.
    err.clear();
    EXPECT_FALSE(parseSchemeSpec("rest+elide", cfg, err));
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_FALSE(parseSchemeSpec("mte+hoist", cfg, err));
    EXPECT_FALSE(err.empty());
}

} // namespace rest::runtime
