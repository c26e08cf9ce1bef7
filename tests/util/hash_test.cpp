// Tests for CRC-32, FNV-1a, and the 64-bit mixers.
#include "util/hash.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace bigmap {
namespace {

std::span<const u8> bytes(const std::string& s) {
  return {reinterpret_cast<const u8*>(s.data()), s.size()};
}

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32 (IEEE) check values.
  EXPECT_EQ(crc32(bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32Test, SingleByteVectors) {
  EXPECT_EQ(crc32(bytes("a")), 0xE8B7BE43u);
  std::vector<u8> zero{0x00};
  EXPECT_EQ(crc32(zero), 0xD202EF8Du);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string s = "hello, coverage bitmap world";
  const u32 whole = crc32(bytes(s));

  u32 state = kCrc32Init;
  for (char c : s) {
    const u8 b = static_cast<u8>(c);
    state = crc32_update(state, {&b, 1});
  }
  EXPECT_EQ(crc32_finalize(state), whole);
}

TEST(Crc32Test, TrailingZeroChangesHash) {
  // The property BigMap's §IV-D hash rule depends on: crc32({1,1}) !=
  // crc32({1,1,0}).
  const std::vector<u8> a{1, 1};
  const std::vector<u8> b{1, 1, 0};
  EXPECT_NE(crc32(a), crc32(b));
}

TEST(Crc32Test, SensitiveToEveryBytePosition) {
  std::vector<u8> base(64, 0xAB);
  const u32 h0 = crc32(base);
  for (usize i = 0; i < base.size(); ++i) {
    std::vector<u8> mod = base;
    mod[i] ^= 0x01;
    EXPECT_NE(crc32(mod), h0) << "position " << i;
  }
}

// Differential tests: crc32()/crc32_update() (carry-less-multiply fold on
// CPUs with PCLMULQDQ) against the slicing-by-8 oracle.
enum class Fill { kRandom, kSparse, kAllFF };

std::vector<u8> make_buffer(usize n, Fill fill, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u8> buf(n, fill == Fill::kAllFF ? 0xFF : 0x00);
  for (u8& b : buf) {
    if (fill == Fill::kRandom) {
      b = static_cast<u8>(rng.next());
    } else if (fill == Fill::kSparse && rng.next() % 50 == 0) {
      b = static_cast<u8>(rng.next() | 1);  // ~2% non-zero, like a trace map
    }
  }
  return buf;
}

u32 portable_crc(std::span<const u8> data) {
  return crc32_finalize(crc32_update_portable(kCrc32Init, data));
}

TEST(Crc32Test, AcceleratedWheneverCpuHasPclmul) {
  // Guards the differential below against comparing the portable path
  // with itself on a host that could run the fold.
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul")) {
    EXPECT_TRUE(crc32_accelerated());
  }
#else
  EXPECT_FALSE(crc32_accelerated());
#endif
}

TEST(Crc32Test, MatchesPortableAtEveryLengthAndOffset) {
  constexpr usize kMaxLen = 1100;
  constexpr usize kMaxOffset = 15;
  for (Fill fill : {Fill::kRandom, Fill::kSparse, Fill::kAllFF}) {
    const auto buf = make_buffer(kMaxLen + kMaxOffset, fill,
                                 0xC0FFEEu + static_cast<u64>(fill));
    for (usize off = 0; off <= kMaxOffset; ++off) {
      for (usize len = 0; len <= kMaxLen; ++len) {
        const std::span<const u8> s(buf.data() + off, len);
        ASSERT_EQ(crc32(s), portable_crc(s))
            << "fill " << static_cast<int>(fill) << " offset " << off
            << " length " << len;
      }
    }
  }
}

TEST(Crc32Test, MatchesPortableOnTwoMegabyteSparseMap) {
  const auto map = make_buffer(usize{2} << 20, Fill::kSparse, 7);
  EXPECT_EQ(crc32(map), portable_crc(map));
}

TEST(Crc32Test, ChainedUpdatesMatchOneShot) {
  // Splits land on both sides of the 64-byte and 16-byte fold thresholds,
  // so the state carried into each fold start and each tail is exercised.
  const auto buf = make_buffer(1000, Fill::kRandom, 11);
  const u32 whole = crc32(buf);
  const std::span<const u8> all(buf);
  for (usize cut = 0; cut <= 200; ++cut) {
    u32 state = crc32_update(kCrc32Init, all.first(cut));
    state = crc32_update(state, all.subspan(cut));
    ASSERT_EQ(crc32_finalize(state), whole) << "split at " << cut;
  }
}

TEST(Fnv1a64Test, KnownVectors) {
  EXPECT_EQ(fnv1a64(bytes("")), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64(bytes("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64(bytes("foobar")), 0x85944171f73967e8ULL);
}

TEST(Mix64Test, BijectivityOnSample) {
  // mix64 is a bijection; no two distinct inputs in a large sample may
  // collide.
  std::unordered_set<u64> outputs;
  for (u64 i = 0; i < 100000; ++i) {
    EXPECT_TRUE(outputs.insert(mix64(i)).second) << "collision at " << i;
  }
}

TEST(Mix64Test, ZeroMapsToZero) {
  // The SplitMix64 finalizer maps 0 to 0 — callers that need a non-zero
  // sentinel must handle it; documented behaviour.
  EXPECT_EQ(mix64(0), 0u);
}

TEST(Mix64Test, AvalancheSmoke) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  constexpr int kSamples = 256;
  for (int i = 0; i < kSamples; ++i) {
    const u64 x = 0x9E3779B97F4A7C15ULL * static_cast<u64>(i + 1);
    const u64 flipped = mix64(x) ^ mix64(x ^ 1);
    total_flips += __builtin_popcountll(flipped);
  }
  const double avg = static_cast<double>(total_flips) / kSamples;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashCombineTest, OrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(HashCombineTest, DistinctPairsDistinctHashes) {
  std::unordered_set<u64> seen;
  for (u64 a = 0; a < 64; ++a) {
    for (u64 b = 0; b < 64; ++b) {
      EXPECT_TRUE(seen.insert(hash_combine(a, b)).second)
          << "collision at (" << a << "," << b << ")";
    }
  }
}

}  // namespace
}  // namespace bigmap
