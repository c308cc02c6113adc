/**
 * @file
 * Exact statistics of the cache hierarchy over a fixed seeded stream of
 * loads, stores, arms and disarms: hits, misses, write-backs, MSHR
 * merges and stall cycles, and REST token fills and evictions, per
 * level. Any change to how lines, tags or MSHRs are stored must leave
 * every count unchanged.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "core/token.hh"
#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/dram.hh"
#include "mem/rest_l1_cache.hh"
#include "util/random.hh"

namespace rest::mem
{

namespace
{

/** The pinned counters of one level, as "name=value" words. */
std::string
levelStats(const stats::StatGroup &g)
{
    std::ostringstream os;
    os << g.name();
    for (const char *stat :
         {"hits", "misses", "writebacks", "mshr_merges",
          "mshr_stall_cycles", "token_fills", "token_evictions"}) {
        os << ' ' << stat << '=' << g.scalarValue(stat);
    }
    return os.str();
}

/**
 * Drive 'ops' accesses through the L1s, picking one per op with 'rng'.
 * Addresses mix a hot 48 KiB region (L1 hits, and churn once arms and
 * token evictions dirty it) with a 16 MiB one (L2 misses and
 * evictions), and revisit recent far lines so misses merge in flight.
 * The clock stands still for bursts and issue cycles jitter backwards
 * as an out-of-order core's do, so the MSHRs of both levels fill up.
 */
void
driveStream(std::vector<RestL1Cache *> l1s,
            const core::TokenConfigRegister &tcr, unsigned ops)
{
    Xoshiro256ss rng(2024);
    const unsigned g = tcr.granule();
    std::array<Addr, 8> recent{};
    Cycles clock = 0;
    for (unsigned i = 0; i < ops; ++i) {
        RestL1Cache &l1 = *l1s[rng.below(l1s.size())];
        Addr addr;
        const unsigned where = static_cast<unsigned>(rng.below(10));
        if (where < 5) {
            addr = 0x100000 + 8 * rng.below(48 * 1024 / 8);
        } else if (where == 5) {
            addr = recent[rng.below(recent.size())] + 8 * rng.below(8);
        } else {
            addr = 0x1000000 + 8 * rng.below(16 * 1024 * 1024 / 8);
            recent[i % recent.size()] = addr & ~Addr(63);
        }
        clock += rng.chance(0.3) ? 0 : rng.below(48);
        const Cycles now = clock + rng.below(64);
        switch (rng.below(8)) {
          case 0:
            l1.armAccess(alignDown(addr, g), now);
            break;
          case 1:
            l1.disarmAccess(alignDown(addr, g), now);
            break;
          case 2:
          case 3:
            l1.storeAccess(addr, 8, now);
            break;
          default:
            l1.loadAccess(addr, 8, now);
            break;
        }
    }
}

core::TokenConfigRegister
tokenRegister(core::TokenWidth width)
{
    Xoshiro256ss rng(5);
    core::TokenConfigRegister tcr;
    tcr.writePrivileged(core::TokenValue::generate(rng, width),
                        core::RestMode::Secure);
    return tcr;
}

std::string
detachedStats(core::TokenWidth width)
{
    GuestMemory memory;
    const core::TokenConfigRegister tcr = tokenRegister(width);
    Dram dram;
    Cache l2(CacheConfig::l2(), dram);
    RestL1Cache l1d(CacheConfig::l1d(), l2, memory, tcr);
    driveStream({&l1d}, tcr, 80000);
    return levelStats(l1d.statGroup()) + "\n" +
           levelStats(l2.statGroup());
}

std::string
coherentStats(core::TokenWidth width)
{
    GuestMemory memory;
    const core::TokenConfigRegister tcr = tokenRegister(width);
    Dram dram;
    Cache l2(CacheConfig::l2(), dram);
    CoherenceBus bus;
    CacheConfig c0 = CacheConfig::l1d(), c1 = CacheConfig::l1d();
    c0.name = "l1d0";
    c1.name = "l1d1";
    RestL1Cache l1d0(c0, l2, memory, tcr), l1d1(c1, l2, memory, tcr);
    for (RestL1Cache *l1 : {&l1d0, &l1d1}) {
        l1->attachBus(&bus);
        bus.attach(*l1);
    }
    driveStream({&l1d0, &l1d1}, tcr, 80000);
    return levelStats(l1d0.statGroup()) + "\n" +
           levelStats(l1d1.statGroup()) + "\n" +
           levelStats(l2.statGroup());
}

} // namespace

TEST(CacheStatsPin, DetachedHierarchy)
{
    EXPECT_EQ(detachedStats(core::TokenWidth::Bytes16),
              "l1d hits=32490 misses=47510 writebacks=21926 "
              "mshr_merges=3289 mshr_stall_cycles=778003 "
              "token_fills=12000 token_evictions=16865\n"
              "l2 hits=38627 misses=30809 writebacks=894 "
              "mshr_merges=0 mshr_stall_cycles=8 "
              "token_fills=0 token_evictions=0");
    EXPECT_EQ(detachedStats(core::TokenWidth::Bytes32),
              "l1d hits=32490 misses=47510 writebacks=21723 "
              "mshr_merges=3289 mshr_stall_cycles=778003 "
              "token_fills=10271 token_evictions=15038\n"
              "l2 hits=38424 misses=30809 writebacks=894 "
              "mshr_merges=0 mshr_stall_cycles=8 "
              "token_fills=0 token_evictions=0");
    EXPECT_EQ(detachedStats(core::TokenWidth::Bytes64),
              "l1d hits=32490 misses=47510 writebacks=21546 "
              "mshr_merges=3289 mshr_stall_cycles=778003 "
              "token_fills=7410 token_evictions=12024\n"
              "l2 hits=38247 misses=30809 writebacks=894 "
              "mshr_merges=0 mshr_stall_cycles=8 "
              "token_fills=0 token_evictions=0");
}

TEST(CacheStatsPin, TwoCoreCoherentHierarchy)
{
    EXPECT_EQ(coherentStats(core::TokenWidth::Bytes16),
              "l1d0 hits=12228 misses=27940 writebacks=12042 "
              "mshr_merges=843 mshr_stall_cycles=125893 "
              "token_fills=8049 token_evictions=10283\n"
              "l1d1 hits=11962 misses=27870 writebacks=12199 "
              "mshr_merges=782 mshr_stall_cycles=121263 "
              "token_fills=8041 token_evictions=10272\n"
              "l2 hits=49226 misses=30809 writebacks=865 "
              "mshr_merges=2021 mshr_stall_cycles=0 "
              "token_fills=0 token_evictions=0");
    EXPECT_EQ(coherentStats(core::TokenWidth::Bytes64),
              "l1d0 hits=12228 misses=27940 writebacks=11801 "
              "mshr_merges=844 mshr_stall_cycles=126223 "
              "token_fills=5007 token_evictions=7131\n"
              "l1d1 hits=11962 misses=27870 writebacks=11956 "
              "mshr_merges=782 mshr_stall_cycles=121380 "
              "token_fills=4982 token_evictions=7204\n"
              "l2 hits=48742 misses=30809 writebacks=865 "
              "mshr_merges=2018 mshr_stall_cycles=0 "
              "token_fills=0 token_evictions=0");
}

} // namespace rest::mem
