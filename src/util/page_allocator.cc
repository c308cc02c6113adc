#include "util/page_allocator.hh"

#include <sys/mman.h>

#include <mutex>
#include <new>
#include <vector>

namespace rest::page_pool
{

namespace
{

/** Most bytes of freed mappings kept for reuse: a few machines' caches
 *  (a 4-core machine's cache arrays take about 1.3 MiB). */
constexpr std::size_t maxKeptBytes = 32u << 20;

struct Pool
{
    struct Region
    {
        void *p;
        std::size_t bytes;
    };

    std::mutex mutex;
    std::vector<Region> kept;
    std::size_t keptBytes = 0;
};

/** Never destroyed, so arrays freed during static destruction still
 *  find it. */
Pool &
pool()
{
    static Pool *p = new Pool;
    return *p;
}

} // namespace

void *
take(std::size_t bytes)
{
    Pool &pl = pool();
    {
        std::lock_guard<std::mutex> lock(pl.mutex);
        for (std::size_t i = 0; i < pl.kept.size(); ++i) {
            if (pl.kept[i].bytes != bytes)
                continue;
            void *p = pl.kept[i].p;
            pl.kept[i] = pl.kept.back();
            pl.kept.pop_back();
            pl.keptBytes -= bytes;
            return p;
        }
    }
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

void
give(void *p, std::size_t bytes) noexcept
{
    Pool &pl = pool();
    {
        std::lock_guard<std::mutex> lock(pl.mutex);
        if (pl.keptBytes + bytes <= maxKeptBytes) {
            try {
                pl.kept.push_back({p, bytes});
                pl.keptBytes += bytes;
                return;
            } catch (...) {
                // No room to remember it: unmap it below.
            }
        }
    }
    munmap(p, bytes);
}

} // namespace rest::page_pool
