#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "util/page_allocator.hh"

namespace rest
{

// A freed region is handed to the next request of the same size, so a
// machine rebuilt with the same caches reuses its predecessor's pages.
TEST(PagePool, ReusesAFreedRegionOfTheSameSize)
{
    constexpr std::size_t bytes = 3 * 4096 + 8;
    void *a = page_pool::take(bytes);
    static_cast<char *>(a)[bytes - 1] = 1;
    page_pool::give(a, bytes);
    void *b = page_pool::take(bytes);
    EXPECT_EQ(b, a);
    void *c = page_pool::take(bytes);
    EXPECT_NE(c, b);
    page_pool::give(b, bytes);
    page_pool::give(c, bytes);
}

TEST(PageAllocator, BacksVectorsAcrossThreads)
{
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([t] {
            for (unsigned i = 0; i < 50; ++i) {
                std::vector<std::uint64_t, PageAllocator<std::uint64_t>>
                    v(1000 + 100 * (i % 3), t);
                v.back() += i;
                ASSERT_EQ(v.front(), t);
                ASSERT_EQ(v.back(), t + i);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
}

} // namespace rest
