// Unit tests: common substrate (strong types, clock, RNG, byte helpers,
// cost model).
#include "common/bytes.h"
#include "common/cost_model.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/types.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace crimes {
namespace {

TEST(Types, VaddrArithmeticAndDecomposition) {
  const Vaddr va{0xFFFF880000003ABCULL};
  EXPECT_EQ(va.page_offset(), 0xABCu);
  EXPECT_EQ((va + 0x544).page_offset(), 0x000u);
  EXPECT_EQ((va + 0x544).page_number(), va.page_number() + 1);
  EXPECT_EQ((va - 0xABC).page_offset(), 0u);
  Vaddr w = va;
  w += 4;
  EXPECT_EQ(w.value(), va.value() + 4);
}

TEST(Types, PaddrPfnRoundTrip) {
  const Paddr pa = Paddr::from(Pfn{42}, 0x123);
  EXPECT_EQ(pa.pfn(), Pfn{42});
  EXPECT_EQ(pa.page_offset(), 0x123u);
  EXPECT_EQ(pa.value(), (42u << 12) | 0x123u);
}

TEST(Types, StrongIdsCompareAndHash) {
  EXPECT_LT(Pfn{1}, Pfn{2});
  EXPECT_EQ(Mfn{7}, Mfn{7});
  EXPECT_NE(Mfn::invalid(), Mfn{0});
  EXPECT_FALSE(Mfn::invalid().is_valid());
  std::unordered_set<Pfn> set{Pfn{1}, Pfn{2}, Pfn{1}};
  EXPECT_EQ(set.size(), 2u);
}

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now(), Nanos::zero());
  clock.advance(millis(1.5));
  EXPECT_EQ(clock.now(), Nanos{1'500'000});
  clock.advance(Nanos{-5});  // negative durations are ignored
  EXPECT_EQ(clock.now(), Nanos{1'500'000});
  clock.reset();
  EXPECT_EQ(clock.now(), Nanos::zero());
}

TEST(SimClock, ConversionHelpers) {
  EXPECT_DOUBLE_EQ(to_ms(millis(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_us(micros(3.0)), 3.0);
  EXPECT_DOUBLE_EQ(to_sec(millis(1500)), 1.5);
  EXPECT_EQ(nanos(7), Nanos{7});
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng rng(99);
  int buckets[10] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.next_below(10)];
  for (const int b : buckets) {
    EXPECT_GT(b, kDraws / 10 - kDraws / 50);
    EXPECT_LT(b, kDraws / 10 + kDraws / 50);
  }
}

TEST(Bytes, LoadStoreRoundTrip) {
  std::vector<std::byte> buf(64);
  store_le<std::uint64_t>(buf, 8, 0xDEADBEEFCAFEF00DULL);
  store_le<std::uint32_t>(buf, 0, 0x12345678u);
  EXPECT_EQ(load_le<std::uint64_t>(buf, 8), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(load_le<std::uint32_t>(buf, 0), 0x12345678u);
}

TEST(Bytes, OutOfRangeThrows) {
  std::vector<std::byte> buf(8);
  EXPECT_THROW((void)load_le<std::uint64_t>(buf, 1), std::out_of_range);
  EXPECT_THROW(store_le<std::uint64_t>(buf, 4, 0ULL), std::out_of_range);
}

TEST(Bytes, CstrRoundTripAndTruncation) {
  std::vector<std::byte> buf(32);
  store_cstr(buf, 4, "hello", 16);
  EXPECT_EQ(load_cstr(buf, 4, 16), "hello");
  store_cstr(buf, 4, "a-very-long-process-name", 8);
  EXPECT_EQ(load_cstr(buf, 4, 8), "a-very-");  // truncated, NUL-terminated
}

TEST(Fnv1a, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors (Fowler/Noll/Vo reference set).
  EXPECT_EQ(fnv1a(std::string_view{}), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a(std::string_view{"a"}), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv1a(std::string_view{"foobar"}), 0x85944171F73967E8ULL);
}

TEST(Fnv1a, ByteAndStringOverloadsAgree) {
  const char text[] = "checkpoint";
  const auto* bytes = reinterpret_cast<const std::byte*>(text);
  EXPECT_EQ(fnv1a(std::span<const std::byte>(bytes, sizeof(text) - 1)),
            fnv1a(std::string_view{text}));
}

TEST(Fnv1a, SeedChainsBlocks) {
  // fnv1a(b, fnv1a(a)) == fnv1a(a + b): the seed parameter continues the
  // fold, which is how multi-block callers compose digests.
  EXPECT_EQ(fnv1a(std::string_view{"bar"}, fnv1a(std::string_view{"foo"})),
            fnv1a(std::string_view{"foobar"}));
}

// Bytes 0..n of the pattern the hash128 reference vectors are pinned on.
std::vector<std::byte> hash_pattern(std::size_t n) {
  std::vector<std::byte> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::byte>((i * 131 + 7) & 0xFF);
  }
  return bytes;
}

TEST(Hash128, ReferenceVectorsAtWordAndStripeBoundaries) {
  // Pinned outputs: lengths straddle the 8-byte word, the 32-byte stripe
  // and the page, under the default seed and one other.
  struct Vector {
    std::size_t len;
    std::uint64_t lo;
    std::uint64_t hi;
  };
  const std::vector<std::byte> bytes = hash_pattern(kPageSize);
  const auto check = [&bytes](std::uint64_t seed,
                              std::initializer_list<Vector> vectors) {
    for (const Vector& v : vectors) {
      const Hash128 h = hash128({bytes.data(), v.len}, seed);
      EXPECT_EQ(h.lo, v.lo) << "seed " << seed << " len " << v.len;
      EXPECT_EQ(h.hi, v.hi) << "seed " << seed << " len " << v.len;
    }
  };
  check(0, {
      {0, 0x0E17D8311C18F271ULL, 0x537D205DEF4CDFF3ULL},
      {1, 0x5FAACA3B477224BEULL, 0xE18CFB976B77A15AULL},
      {7, 0xC2BAA13E3FB95F61ULL, 0x04DC2D31047655D1ULL},
      {8, 0xE44E308BD3C66793ULL, 0xB8A45CC84FE50C9BULL},
      {31, 0x586A52918CEAF6D1ULL, 0xCD2CB31873C43D26ULL},
      {32, 0xDE4E3B6985CAB740ULL, 0x90A68B94E810C954ULL},
      {33, 0xB3C969B4603D8957ULL, 0xB37C082FD233EE11ULL},
      {4095, 0x9A32BCB3A5DA4DFEULL, 0xC318424AA2939611ULL},
      {4096, 0xDB4DDF01A6B4E60AULL, 0x94B313CE2C5BEFDBULL},
  });
  check(0x5EED, {
      {0, 0x31F661DA06940661ULL, 0x2EE4092D6035C567ULL},
      {1, 0x9F2FE4861E95E8F9ULL, 0x2D71C9B32B9F1ED8ULL},
      {7, 0x6C81D77ED33A60FEULL, 0x2B1F6E2D9BCF0B5CULL},
      {8, 0x70C5AFDDC5131E91ULL, 0x8F8B951CB8747267ULL},
      {31, 0x74BF02B236869004ULL, 0xB6A925C72EC8D791ULL},
      {32, 0x7792371982EC7EC2ULL, 0xB60DB89F62644B92ULL},
      {33, 0x55A49DB4573965B1ULL, 0xB0BDB556531E1036ULL},
      {4095, 0x205CC6BADB6CE343ULL, 0x062562955A48FE1BULL},
      {4096, 0x200D11686DFE0C96ULL, 0x015C52F739804AFEULL},
  });
}

TEST(Hash128, CopyAndHashMatchesUnfusedAndCopiesExactly) {
  // The CoW drain's fused pass must produce the digest the store computes
  // on its own, and the copy must be exact -- at every tail shape, from
  // unaligned sources and into unaligned destinations.
  const std::vector<std::byte> src = hash_pattern(kPageSize + 8);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 80; ++len) lengths.push_back(len);
  lengths.insert(lengths.end(), {511, kPageSize - 1, kPageSize});
  const auto untouched = [](auto first, auto last) {
    return std::all_of(first, last,
                       [](std::byte b) { return b == std::byte{0xEE}; });
  };
  for (const std::size_t offset : {std::size_t{0}, std::size_t{3}}) {
    for (const std::size_t len : lengths) {
      std::vector<std::byte> dst(len + 16, std::byte{0xEE});
      const std::byte* from = src.data() + offset;
      const auto to = dst.begin() + static_cast<std::ptrdiff_t>(offset);
      const Hash128 fused = copy_and_hash(&*to, from, len, 0x77);
      EXPECT_EQ(fused, hash128({from, len}, 0x77))
          << "len " << len << " offset " << offset;
      EXPECT_TRUE(std::equal(from, from + len, to))
          << "len " << len << " offset " << offset;
      EXPECT_TRUE(untouched(dst.begin(), to)) << "wrote before dst";
      EXPECT_TRUE(untouched(to + static_cast<std::ptrdiff_t>(len), dst.end()))
          << "wrote past len " << len;
    }
  }
}

TEST(Hash128, SingleBitFlipChangesBothHalves) {
  // The store keys on `lo` and checks `hi`: both must see every bit of a
  // page, so no single-bit change can leave either half unchanged.
  std::vector<std::byte> page = hash_pattern(kPageSize);
  const Hash128 base = hash128(page);
  for (std::size_t byte = 0; byte < kPageSize; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      page[byte] ^= static_cast<std::byte>(1U << bit);
      const Hash128 flipped = hash128(page);
      page[byte] ^= static_cast<std::byte>(1U << bit);
      ASSERT_NE(flipped.lo, base.lo) << "byte " << byte << " bit " << bit;
      ASSERT_NE(flipped.hi, base.hi) << "byte " << byte << " bit " << bit;
    }
  }
  // Appending a zero byte changes the length, hence the digest.
  std::vector<std::byte> longer = page;
  longer.push_back(std::byte{0});
  EXPECT_NE(hash128(longer).lo, base.lo);
  EXPECT_NE(hash128(longer).hi, base.hi);
}

TEST(CostModel, DerivedCostsScaleWithLoad) {
  const CostModel& m = CostModel::defaults();
  EXPECT_GT(m.suspend_cost(2000), m.suspend_cost(0));
  EXPECT_EQ(m.suspend_cost(0), m.suspend_base);
  EXPECT_GT(m.resume_cost(5000), m.resume_base);
  // Chunked scanning of a sparse bitmap must beat naive bit-by-bit.
  const std::size_t pages = 262144;  // 1 GiB guest
  EXPECT_LT(m.bitscan_chunked_cost(pages / 64, 2000),
            m.bitscan_naive_cost(pages));
}

TEST(CostModel, Table1CalibrationAnchors) {
  // The defaults must stay near the paper's Table 1 anchors; these bounds
  // catch accidental recalibration.
  const CostModel& m = CostModel::defaults();
  const double bitscan_1g = to_ms(m.bitscan_naive_cost(262144));
  EXPECT_NEAR(bitscan_1g, 2.6, 0.5);  // paper: 1.8-2.8 ms
  const double copy_1463 = to_ms(m.copy_socket_per_page * 1463);
  EXPECT_NEAR(copy_1463, 14.6, 2.0);  // paper: 14.63 ms (medium web)
  const double map_1463 = to_ms(m.map_per_page * 1463);
  EXPECT_NEAR(map_1463, 1.9, 0.5);  // paper: 1.88 ms
}

}  // namespace
}  // namespace crimes
