/**
 * @file
 * Allocator for large, short-lived scratch buffers that several
 * threads allocate at once (the tabu workspaces of concurrent
 * compiles).
 *
 * glibc keeps freed memory in the malloc arena of the thread that
 * allocated it, one arena per concurrently allocating thread, and
 * after the first large free it raises its mmap threshold, so later
 * large blocks come from, and go back to, the heap of their arena.
 * Per-call scratch allocated on several threads therefore leaves
 * every arena holding its own high-water mark, and peak RSS grows
 * with the number of allocating threads rather than with what is live
 * at once.  Blocks of kMapFrom bytes or more from this allocator are
 * their own anonymous mappings, unmapped when freed, so their memory
 * returns to the system with the buffer; smaller ones use operator
 * new.
 */

#ifndef TQAN_CORE_MAPPED_ALLOCATOR_H
#define TQAN_CORE_MAPPED_ALLOCATOR_H

#include <cstddef>
#include <new>

namespace tqan {
namespace core {

/** Smallest block that gets its own mapping: glibc's initial mmap
 * threshold, before its dynamic adjustment moves it. */
constexpr std::size_t kMapFrom = std::size_t(128) << 10;

/** `bytes` of zeroed pages, or throws std::bad_alloc. */
void *mapPages(std::size_t bytes);
/** Unmaps a block mapPages(bytes) returned. */
void unmapPages(void *p, std::size_t bytes) noexcept;

template <class T>
struct MappedAllocator
{
    using value_type = T;

    MappedAllocator() noexcept = default;
    template <class U>
    MappedAllocator(const MappedAllocator<U> &) noexcept
    {
    }

    T *allocate(std::size_t n)
    {
        if (n > static_cast<std::size_t>(-1) / sizeof(T))
            throw std::bad_alloc();
        const std::size_t bytes = n * sizeof(T);
        if (bytes >= kMapFrom)
            return static_cast<T *>(mapPages(bytes));
        return static_cast<T *>(::operator new(bytes));
    }

    void deallocate(T *p, std::size_t n) noexcept
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes >= kMapFrom)
            unmapPages(p, bytes);
        else
            ::operator delete(p);
    }
};

template <class T, class U>
bool
operator==(const MappedAllocator<T> &, const MappedAllocator<U> &) noexcept
{
    return true;
}

template <class T, class U>
bool
operator!=(const MappedAllocator<T> &, const MappedAllocator<U> &) noexcept
{
    return false;
}

} // namespace core
} // namespace tqan

#endif // TQAN_CORE_MAPPED_ALLOCATOR_H
