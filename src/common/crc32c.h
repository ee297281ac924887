// CRC32C (Castagnoli) checksums for WAL records, SST blocks, MANIFEST
// edits and the PMem ring buffer. Extend uses the SSE4.2 crc32 instruction
// when the CPU has it and slice-by-8 tables otherwise, chosen once per
// process; both give the same values. The masked form guards against
// checksums-of-checksums as in LevelDB.

#ifndef TIERBASE_COMMON_CRC32C_H_
#define TIERBASE_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace tierbase {
namespace crc32c {

/// Returns the crc32c of concat(A, data[0, n-1]) where init_crc is the
/// crc32c of A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// crc32c of data[0, n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

namespace internal {

/// Slice-by-8 table implementation; runs on any CPU.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// True when the CPU has the SSE4.2 crc32 instruction.
bool HardwareAvailable();

#if defined(__x86_64__)
/// SSE4.2 implementation; call only when HardwareAvailable().
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);
#endif

}  // namespace internal

constexpr uint32_t kMaskDelta = 0xa282ead8ul;

/// Masked CRC, safe to store alongside the data it covers.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace tierbase

#endif  // TIERBASE_COMMON_CRC32C_H_
