/**
 * @file
 * Uninitialized storage for large write-once columns, on transparent huge
 * pages where the kernel allows.
 *
 * A decoded trace arena writes tens of megabytes of columns exactly once,
 * so on 4 KiB pages a good share of its build time is first-touch page
 * faults. A column of at least kHugePageBytes is mmap'ed at a 2 MiB-
 * aligned address and advised MADV_HUGEPAGE, so that one fault maps
 * 2 MiB wherever the host's THP mode is "madvise" or "always". Its
 * length is rounded up to whole small pages only: the tail past the last
 * 2 MiB boundary stays on small pages, so a column costs no more resident
 * memory than it would on the heap. Smaller columns come from the heap,
 * and a refused mapping or advice falls back silently.
 */
#ifndef MBP_UTILS_COLUMN_BUFFER_HPP
#define MBP_UTILS_COLUMN_BUFFER_HPP

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mbp::util
{

/** Size of a transparent huge page; smaller columns use the heap. */
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/** Releases a column allocation; remembers how it was made. */
struct ColumnDeleter
{
    std::size_t bytes = 0; //!< the page-rounded mapping or the heap block
    bool mapped = false;   //!< an mmap (huge-page candidate), not the heap

    void operator()(void *data) const noexcept;
};

/** Raw uninitialized column bytes. */
using ColumnBytes = std::unique_ptr<void, ColumnDeleter>;

/** @return @p bytes uninitialized bytes (see the file comment). Throws
 *  std::bad_alloc. */
ColumnBytes allocateColumn(std::size_t bytes);

/** A growable array of trivially copyable T on ColumnBytes. */
template <typename T>
class Column
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    T *data() { return static_cast<T *>(bytes_.get()); }
    const T *data() const { return static_cast<const T *>(bytes_.get()); }

    /** @return Elements the column has room for. */
    std::size_t capacity() const { return capacity_; }

    /** @return Bytes held (ColumnDeleter::bytes). */
    std::size_t reservedBytes() const { return bytes_.get_deleter().bytes; }

    /** @return Whether the column is mmap-backed. */
    bool mapped() const { return bytes_.get_deleter().mapped; }

    /**
     * Grows the room to @p count elements (no-op when already there),
     * keeping the first @p keep. Throws std::bad_alloc.
     */
    void
    reserve(std::size_t count, std::size_t keep)
    {
        if (count <= capacity_)
            return;
        if (count > static_cast<std::size_t>(-1) / sizeof(T))
            throw std::bad_alloc();
        ColumnBytes grown = allocateColumn(count * sizeof(T));
        if (keep != 0)
            std::memcpy(grown.get(), bytes_.get(), keep * sizeof(T));
        bytes_ = std::move(grown);
        capacity_ = count;
    }

  private:
    ColumnBytes bytes_;
    std::size_t capacity_ = 0;
};

} // namespace mbp::util

#endif // MBP_UTILS_COLUMN_BUFFER_HPP
