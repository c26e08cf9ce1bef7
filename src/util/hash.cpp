#include "util/hash.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace bigmap {
namespace {

// Slicing-by-8 CRC-32: eight derived tables let the inner loop consume
// 8 bytes per iteration (~5x faster than the classic bytewise loop). It is
// the whole CRC on CPUs without carry-less multiply; on those with it, it
// takes spans shorter than kFoldMin and the last len % 16 bytes.
struct CrcTables {
  std::array<std::array<u32, 256>, 8> t{};

  constexpr CrcTables() {
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (u32 i = 0; i < 256; ++i) {
      u32 c = t[0][i];
      for (usize slice = 1; slice < 8; ++slice) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[slice][i] = c;
      }
    }
  }
};

constexpr CrcTables kCrc;

#if defined(__x86_64__)

// Inputs shorter than this stay on the table loop: the fold needs four
// lanes to start, and its fixed reduction cost does not pay below that.
constexpr usize kFoldMin = 64;

inline __m128i load128(const u8* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One fold step: the lane `x` carried 128 bits (k1k2) or 512 bits (k3k4)
// forward, onto the data lane `next`.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i x, __m128i k,
                                                      __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Carry-less-multiply CRC-32 (Intel, "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", 2009), with the reflected IEEE
// constants zlib and Chromium use. Folds four 128-bit lanes per 64-byte
// step, folds those down to one lane, then reduces 128 -> 64 -> 32 bits
// with a Barrett step. `len` is a multiple of 16 and at least kFoldMin;
// `crc` is the running (pre-finalize) state, and so is the result.
// Only SSE2 besides PCLMULQDQ: the final lane extract is a byte shift
// rather than SSE4.1's _mm_extract_epi32.
__attribute__((target("pclmul"))) u32 crc32_fold(u32 crc, const u8* p,
                                                 usize len) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  len -= 64;

  for (; len >= 64; p += 64, len -= 64) {
    x1 = fold(x1, k1k2, load128(p));
    x2 = fold(x2, k1k2, load128(p + 16));
    x3 = fold(x3, k1k2, load128(p + 32));
    x4 = fold(x4, k1k2, load128(p + 48));
  }

  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) {
    x1 = fold(x1, k3k4, load128(p));
  }

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  // Barrett reduction 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<u32>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

#endif

}  // namespace

bool crc32_accelerated() noexcept {
#if defined(__x86_64__)
  // Probed on first use, not by a namespace-scope initializer: that could
  // run before libgcc has filled in the CPU model it reads.
  static const bool kPclmul = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return kPclmul;
#else
  return false;
#endif
}

u32 crc32_update_portable(u32 state, std::span<const u8> data) noexcept {
  u32 c = state;
  const u8* p = data.data();
  usize n = data.size();

  while (n >= 8) {
    u64 w;
    std::memcpy(&w, p, 8);
    w ^= c;  // fold current state into the low 4 bytes (little-endian)
    c = kCrc.t[7][w & 0xFF] ^ kCrc.t[6][(w >> 8) & 0xFF] ^
        kCrc.t[5][(w >> 16) & 0xFF] ^ kCrc.t[4][(w >> 24) & 0xFF] ^
        kCrc.t[3][(w >> 32) & 0xFF] ^ kCrc.t[2][(w >> 40) & 0xFF] ^
        kCrc.t[1][(w >> 48) & 0xFF] ^ kCrc.t[0][(w >> 56) & 0xFF];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = kCrc.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

u32 crc32_update(u32 state, std::span<const u8> data) noexcept {
#if defined(__x86_64__)
  if (data.size() >= kFoldMin && crc32_accelerated()) {
    const usize folded = data.size() & ~static_cast<usize>(15);
    state = crc32_fold(state, data.data(), folded);
    data = data.subspan(folded);
  }
#endif
  return crc32_update_portable(state, data);
}

u32 crc32(std::span<const u8> data) noexcept {
  return crc32_finalize(crc32_update(kCrc32Init, data));
}

}  // namespace bigmap
