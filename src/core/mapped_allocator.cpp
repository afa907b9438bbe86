#include "core/mapped_allocator.h"

#include <sys/mman.h>

namespace tqan {
namespace core {

void *
mapPages(std::size_t bytes)
{
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

void
unmapPages(void *p, std::size_t bytes) noexcept
{
    munmap(p, bytes);
}

} // namespace core
} // namespace tqan
