#include "common/crc32c.h"

#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace tierbase {
namespace crc32c {

namespace {

// CRC32C polynomial (reversed): 0x82f63b78.
constexpr uint32_t kPoly = 0x82f63b78u;

// Slice-by-8 lookup tables: t[0] is the classic byte table; t[k] folds a
// byte that sits k positions ahead, letting the hot loop consume 8 bytes
// per iteration with 8 independent table loads.
struct Tables {
  uint32_t t[8][256];
};

Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      tables.t[k][i] =
          (tables.t[k - 1][i] >> 8) ^ tables.t[0][tables.t[k - 1][i] & 0xff];
    }
  }
  return tables;
}

const Tables& GetTables() {
  static const Tables tables = MakeTables();
  return tables;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const Tables& tables = GetTables();
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;

  // Align to 8 bytes.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = tables.t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
    --n;
  }
  // Main loop: 8 bytes per iteration.
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    // Little-endian fold (the on-disk format and all supported targets are
    // little-endian; a big-endian port would byte-swap here).
    crc ^= static_cast<uint32_t>(word);
    uint32_t high = static_cast<uint32_t>(word >> 32);
    crc = tables.t[7][crc & 0xff] ^ tables.t[6][(crc >> 8) & 0xff] ^
          tables.t[5][(crc >> 16) & 0xff] ^ tables.t[4][crc >> 24] ^
          tables.t[3][high & 0xff] ^ tables.t[2][(high >> 8) & 0xff] ^
          tables.t[1][(high >> 16) & 0xff] ^ tables.t[0][high >> 24];
    p += 8;
    n -= 8;
  }
  // Tail.
  while (n > 0) {
    crc = tables.t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
    --n;
  }
  return crc ^ 0xffffffffu;
}

#if defined(__x86_64__)
// Same loop shape as ExtendPortable, one crc32 instruction per 8 bytes.
// Only this function is built for SSE4.2, so the rest of the binary still
// runs on a CPU without it.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(
    uint32_t init_crc, const char* data, size_t n) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint64_t crc = init_crc ^ 0xffffffffu;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    --n;
  }
  while (n >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    --n;
  }
  return static_cast<uint32_t>(crc) ^ 0xffffffffu;
}

bool HardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#else
bool HardwareAvailable() { return false; }
#endif

}  // namespace internal

namespace {

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#if defined(__x86_64__)
  if (internal::HardwareAvailable()) return internal::ExtendHardware;
#endif
  return internal::ExtendPortable;
}

}  // namespace

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  static const ExtendFn extend = ChooseExtend();
  return extend(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace tierbase
