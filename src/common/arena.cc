#include "common/arena.h"

#include <cstdint>

namespace tierbase {

char* Arena::AllocateFallback(size_t bytes) {
  if (bytes > block_bytes_ / 4) {
    // Large objects get their own block so we don't waste the remainder of
    // the current block.
    return AllocateNewBlock(bytes);
  }
  alloc_ptr_ = AllocateNewBlock(block_bytes_);
  alloc_bytes_remaining_ = block_bytes_;
  char* result = alloc_ptr_;
  alloc_ptr_ += bytes;
  alloc_bytes_remaining_ -= bytes;
  return result;
}

char* Arena::AllocateAligned(size_t bytes) {
  const size_t align = sizeof(void*);
  size_t current_mod = reinterpret_cast<uintptr_t>(alloc_ptr_) & (align - 1);
  size_t slop = (current_mod == 0 ? 0 : align - current_mod);
  size_t needed = bytes + slop;
  char* result;
  if (needed <= alloc_bytes_remaining_) {
    result = alloc_ptr_ + slop;
    alloc_ptr_ += needed;
    alloc_bytes_remaining_ -= needed;
  } else {
    result = AllocateFallback(bytes);  // New blocks are always aligned.
  }
  assert((reinterpret_cast<uintptr_t>(result) & (align - 1)) == 0);
  return result;
}

char* Arena::AllocateNewBlock(size_t block_bytes) {
  // new char[] and not make_unique<char[]>: no zero fill.
  blocks_.emplace_back(new char[block_bytes]);
  memory_usage_.fetch_add(block_bytes + sizeof(char*),
                          std::memory_order_relaxed);
  return blocks_.back().get();
}

}  // namespace tierbase
