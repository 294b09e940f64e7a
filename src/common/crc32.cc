#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dcp {
namespace {

// Slicing-by-8: eight derived tables fold 8 input bytes per iteration (one unaligned
// 64-bit load and eight table lookups). It is the whole CRC on hosts without
// PCLMULQDQ, the tail and the short inputs of the folding kernel everywhere, and the
// reference the tests hold the folding kernel to. The wide loop assumes little-endian
// layout; elsewhere every byte takes the byte-wise loop, which is the definition.
std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

#if defined(__x86_64__)

// Inputs shorter than this take the portable kernel: the folding kernel loads four
// 16-byte lanes before its first fold.
constexpr size_t kFoldMinBytes = 64;

// Carry-less-multiply folding ("Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ", Intel 2009), over the bit-reflected IEEE polynomial. Each constant is a
// power of x modulo P, reflected and shifted left by one, as that paper derives them:
// the pair that folds a lane across 512 bits (four lanes), the pair that folds across
// 128 bits, x^64 for the 64-bit step, and P' with the Barrett quotient mu.
constexpr uint64_t kFold512Lo = 0x154442BD4;  // x^(4*128+32) mod P.
constexpr uint64_t kFold512Hi = 0x1C6E41596;  // x^(4*128-32) mod P.
constexpr uint64_t kFold128Lo = 0x1751997D0;  // x^(128+32) mod P.
constexpr uint64_t kFold128Hi = 0x0CCAA009E;  // x^(128-32) mod P.
constexpr uint64_t kFold64 = 0x163CD6124;     // x^64 mod P.
constexpr uint64_t kPoly = 0x1DB710641;       // P'.
constexpr uint64_t kBarrettMu = 0x1F7011641;  // floor(x^64 / P), reflected.

// The folding kernel and its helpers are compiled for PCLMULQDQ + SSE4.1 alone (the
// default build passes no -m flags) and run only after CpuHasClmul() said yes.
#define DCP_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

DCP_CLMUL_TARGET inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x's low half times k's low constant plus its high half times k's high constant,
// which moves x's 128 bits forward by the distance the constants encode; then `next`,
// the data block at the new position, is added.
DCP_CLMUL_TARGET inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)),
      next);
}

// Advances the raw (un-inverted) CRC state over `size` bytes, where size >= 64 and is
// a multiple of 16. Loads are unaligned and never leave [bytes, bytes + size).
DCP_CLMUL_TARGET uint32_t FoldClmul(uint32_t state, const unsigned char* bytes,
                                    size_t size) {
  __m128i x0 = _mm_xor_si128(Load(bytes), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = Load(bytes + 16);
  __m128i x2 = Load(bytes + 32);
  __m128i x3 = Load(bytes + 48);
  bytes += 64;
  size -= 64;

  // Four independent lanes hide the multiply latency: 64 bytes per step.
  const __m128i k512 = _mm_set_epi64x(static_cast<long long>(kFold512Hi),
                                      static_cast<long long>(kFold512Lo));
  for (; size >= 64; bytes += 64, size -= 64) {
    x0 = Fold(x0, k512, Load(bytes));
    x1 = Fold(x1, k512, Load(bytes + 16));
    x2 = Fold(x2, k512, Load(bytes + 32));
    x3 = Fold(x3, k512, Load(bytes + 48));
  }

  // Fold the four lanes into one, then the remaining 16-byte blocks into it.
  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(kFold128Hi),
                                      static_cast<long long>(kFold128Lo));
  __m128i x = Fold(x0, k128, x1);
  x = Fold(x, k128, x2);
  x = Fold(x, k128, x3);
  for (; size >= 16; bytes += 16, size -= 16) {
    x = Fold(x, k128, Load(bytes));
  }

  // 128 -> 64 bits: the low half times x^(128-32), added to the high half.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k128, 0x10));
  // 64 -> 32 bits (in the upper half of the 64-bit lane).
  const __m128i k64 = _mm_set_epi64x(0, static_cast<long long>(kFold64));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k64, 0x00));
  // Barrett reduction to the 32-bit remainder.
  const __m128i barrett = _mm_set_epi64x(static_cast<long long>(kBarrettMu),
                                         static_cast<long long>(kPoly));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool CpuHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#undef DCP_CLMUL_TARGET

#endif  // defined(__x86_64__)

}  // namespace

namespace internal {

uint32_t PortableCrc32Update(uint32_t crc, const void* data, size_t size) {
  static const std::array<std::array<uint32_t, 256>, 8> tables = MakeTables();
  const auto& t = tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  if constexpr (std::endian::native == std::endian::little) {
    while (size >= 8) {
      uint64_t chunk;
      std::memcpy(&chunk, bytes, 8);
      const uint32_t lo = crc ^ static_cast<uint32_t>(chunk);
      const uint32_t hi = static_cast<uint32_t>(chunk >> 32);
      crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
      bytes += 8;
      size -= 8;
    }
  }
  for (size_t i = 0; i < size; ++i) {
    crc = t[0][(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace internal

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  static const bool use_clmul = CpuHasClmul();
  if (use_clmul && size >= kFoldMinBytes) {
    const size_t folded = size & ~size_t{15};
    crc = ~FoldClmul(~crc, bytes, folded);
    bytes += folded;
    size -= folded;
  }
#endif
  return internal::PortableCrc32Update(crc, bytes, size);
}

}  // namespace dcp
