/**
 * @file
 * Dense first-seen ids for 64-bit keys.
 *
 * Building a trace arena interns every branch address into a dense site
 * id, and that lookup is the hot half of the build. Site working sets are
 * hundreds to thousands of addresses, so a direct-mapped cache in front
 * of the FlatHashMap answers almost every lookup with one load and one
 * compare; only a cache miss probes the map.
 */
#ifndef MBP_UTILS_INTERNER_HPP
#define MBP_UTILS_INTERNER_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "mbp/utils/flat_hash_map.hpp"

namespace mbp::util
{

/** Assigns 64-bit keys dense u32 ids 0, 1, 2, ... in first-seen order. */
class Interner
{
  public:
    /** Entries of the direct-mapped key -> id cache. */
    static constexpr std::size_t kCacheEntries = 4096;

    /** Most distinct keys an Interner holds: ids must fit a u32. */
    static constexpr std::size_t kMaxKeys =
        std::numeric_limits<std::uint32_t>::max();

    Interner() : cache_(kCacheEntries) {}

    /** @return The cache entry @p key maps to (a Fibonacci hash). */
    static constexpr std::size_t
    cacheIndex(std::uint64_t key)
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        (64 - 12));
    }
    static_assert(kCacheEntries == std::size_t{1} << 12);

    /**
     * Writes the id of each of @p keys[0, n) to @p ids, giving a key seen
     * for the first time the next free id.
     *
     * @return False when a new key would exceed kMaxKeys (ids from that
     *         key on are unspecified).
     */
    bool
    intern(const std::uint64_t *keys, std::uint32_t *ids, std::size_t n)
    {
        Entry *cache = cache_.data();
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t key = keys[i];
            Entry &entry = cache[cacheIndex(key)];
            if (entry.key != key || entry.id == kNoId) [[unlikely]] {
                // The map stores id + 1 so its default 0 means "new key".
                std::uint32_t &slot = map_[key];
                if (slot == 0) {
                    if (keys_.size() == kMaxKeys)
                        return false;
                    keys_.push_back(key);
                    slot = static_cast<std::uint32_t>(keys_.size());
                }
                entry = Entry{key, slot - 1};
            }
            ids[i] = entry.id;
        }
        return true;
    }

    /** @return Distinct keys interned so far. */
    std::size_t size() const { return keys_.size(); }

    /** @return Id -> key, size() entries. */
    const std::vector<std::uint64_t> &keys() const { return keys_; }

  private:
    static constexpr std::uint32_t kNoId =
        std::numeric_limits<std::uint32_t>::max();

    struct Entry
    {
        std::uint64_t key = 0;
        std::uint32_t id = kNoId; // never a real id: ids < kMaxKeys
    };

    std::vector<Entry> cache_;
    FlatHashMap<std::uint32_t> map_;
    std::vector<std::uint64_t> keys_;
};

} // namespace mbp::util

#endif // MBP_UTILS_INTERNER_HPP
