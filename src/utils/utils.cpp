/**
 * @file
 * The utilities library is header-only but for the column allocator;
 * this translation unit exists so the headers are compiled (and their
 * static_asserts checked) as part of every build.
 */
#include "mbp/utils/bits.hpp"
#include "mbp/utils/column_buffer.hpp"
#include "mbp/utils/flat_hash_map.hpp"
#include "mbp/utils/hash.hpp"
#include "mbp/utils/history.hpp"
#include "mbp/utils/interner.hpp"
#include "mbp/utils/lfsr.hpp"
#include "mbp/utils/sat_counter.hpp"

namespace mbp
{

static_assert(i2::kMin == -2 && i2::kMax == 1, "i2 is a two-bit counter");
static_assert(u2::kMin == 0 && u2::kMax == 3, "u2 is a two-bit counter");
static_assert(XorFold(0xffffffffffffffffull, 16) == 0, "even chunk count");
static_assert(util::maskBits(0) == 0 && util::maskBits(64) == ~0ull,
              "mask edge cases");
static_assert(util::ceilLog2(1) == 0 && util::ceilLog2(2) == 1 &&
              util::ceilLog2(3) == 2 && util::ceilLog2(1024) == 10,
              "ceilLog2");

} // namespace mbp
