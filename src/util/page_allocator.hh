/**
 * @file
 * A standard allocator for large arrays that every simulated machine
 * builds and drops (cache tag and line arrays), backed by anonymous
 * mappings that are recycled between machines.
 *
 * Through malloc, the first such array above the mmap threshold is
 * mapped, and freeing it raises glibc's dynamic threshold (and with it
 * the trim threshold), so every later one lands in the heap arena,
 * which then keeps up to twice the array's size of freed memory
 * resident: the process's memory high-water mark grows by about a
 * cache's worth. Mapping the arrays directly avoids that, and keeping
 * the freed mappings for the next machine of the same shape avoids
 * paying fresh page faults and an unmap for every machine.
 */

#ifndef REST_UTIL_PAGE_ALLOCATOR_HH
#define REST_UTIL_PAGE_ALLOCATOR_HH

#include <cstddef>

namespace rest
{

namespace page_pool
{

/**
 * A writable region of 'bytes' bytes (not zeroed): a kept mapping of
 * exactly that size, else a new one. Throws std::bad_alloc on failure.
 */
void *take(std::size_t bytes);

/** Return a region from take(): kept for reuse, or unmapped once the
 *  kept regions would exceed a fixed total. */
void give(void *p, std::size_t bytes) noexcept;

} // namespace page_pool

template <typename T>
class PageAllocator
{
  public:
    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &) {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(page_pool::take(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        page_pool::give(p, n * sizeof(T));
    }

    template <typename U>
    bool operator==(const PageAllocator<U> &) const { return true; }
};

} // namespace rest

#endif // REST_UTIL_PAGE_ALLOCATOR_HH
