/**
 * @file
 * Column allocation: aligned anonymous mappings with huge-page advice
 * for large columns, the heap for the rest.
 */
#include "mbp/utils/column_buffer.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <new>

namespace mbp::util
{

namespace
{

std::size_t
roundUp(std::size_t value, std::size_t to)
{
    return (value + to - 1) / to * to;
}

std::size_t
smallPageBytes()
{
    static const std::size_t bytes = [] {
        const long page = ::sysconf(_SC_PAGESIZE);
        return page > 0 ? static_cast<std::size_t>(page) : std::size_t{4096};
    }();
    return bytes;
}

/** @return A kHugePageBytes-aligned read-write anonymous mapping of
 *  @p length bytes, or nullptr. */
void *
mapAligned(std::size_t length)
{
    // Over-reserve address space by one huge page, then unmap the slack
    // on both sides of the aligned range. Nothing is touched, so the
    // slack never costs resident memory.
    const std::size_t span = length + kHugePageBytes;
    void *base = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
        return nullptr;
    const auto start = reinterpret_cast<std::uintptr_t>(base);
    const std::uintptr_t aligned = roundUp(start, kHugePageBytes);
    const std::size_t head = aligned - start;
    if (head != 0)
        ::munmap(base, head);
    if (span - head - length != 0)
        ::munmap(reinterpret_cast<void *>(aligned + length),
                 span - head - length);
    void *addr = reinterpret_cast<void *>(aligned);
#ifdef MADV_HUGEPAGE
    // Advice only: a kernel without THP (or with it off) refuses it and
    // the mapping simply keeps small pages.
    ::madvise(addr, length, MADV_HUGEPAGE);
#endif
    return addr;
}

} // namespace

ColumnBytes
allocateColumn(std::size_t bytes)
{
    if (bytes == 0)
        return {};
    if (bytes >= kHugePageBytes) {
        const std::size_t length = roundUp(bytes, smallPageBytes());
        if (void *addr = mapAligned(length))
            return ColumnBytes(addr, ColumnDeleter{length, true});
    }
    void *data = std::malloc(bytes);
    if (data == nullptr)
        throw std::bad_alloc();
    return ColumnBytes(data, ColumnDeleter{bytes, false});
}

void
ColumnDeleter::operator()(void *data) const noexcept
{
    if (mapped)
        ::munmap(data, bytes);
    else
        std::free(data);
}

} // namespace mbp::util
