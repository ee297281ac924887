// Binary encoding helpers: fixed-width little-endian integers and varints.
// Used by the WAL, SST format, PMem ring buffer, and replication oplog.

#ifndef TIERBASE_COMMON_CODING_H_
#define TIERBASE_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace tierbase {

inline void EncodeFixed32(char* dst, uint32_t value) {
  memcpy(dst, &value, sizeof(value));  // Little-endian hosts only.
}

inline void EncodeFixed64(char* dst, uint64_t value) {
  memcpy(dst, &value, sizeof(value));
}

inline uint32_t DecodeFixed32(const char* ptr) {
  uint32_t result;
  memcpy(&result, ptr, sizeof(result));
  return result;
}

inline uint64_t DecodeFixed64(const char* ptr) {
  uint64_t result;
  memcpy(&result, ptr, sizeof(result));
  return result;
}

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);

/// Writes a varint32 (1-5 bytes, 7 bits per byte, MSB = continuation) at
/// `dst`, which must have room for it; returns the byte past it.
char* EncodeVarint32(char* dst, uint32_t value);
/// Appends a varint32.
void PutVarint32(std::string* dst, uint32_t value);
/// Appends a varint64 (1-10 bytes).
void PutVarint64(std::string* dst, uint64_t value);
/// Appends varint32(len) followed by the bytes of `value`.
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);

/// Parses a varint32 from [p, limit). Returns pointer past the varint, or
/// nullptr on malformed/truncated input.
const char* GetVarint32Ptr(const char* p, const char* limit, uint32_t* value);
const char* GetVarint64Ptr(const char* p, const char* limit, uint64_t* value);

/// Consuming parsers over a Slice: on success advance `input` and return true.
bool GetVarint32(Slice* input, uint32_t* value);
bool GetVarint64(Slice* input, uint64_t* value);
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);
bool GetLengthPrefixedSlice(Slice* input, Slice* result);

/// Number of bytes PutVarint32/64 would write.
int VarintLength(uint64_t v);

}  // namespace tierbase

#endif  // TIERBASE_COMMON_CODING_H_
