// Arena: block allocator backing the skiplist memtable. All allocations
// live until the arena is destroyed (matching memtable lifetime). Blocks
// come from the heap uninitialised: every byte handed out is written by
// its caller before it is read.

#ifndef TIERBASE_COMMON_ARENA_H_
#define TIERBASE_COMMON_ARENA_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

namespace tierbase {

class Arena {
 public:
  static constexpr size_t kBlockSize = 4096;  // The default block size.

  /// Carves allocations of up to block_bytes / 4 from blocks of
  /// `block_bytes`; a larger one gets a block of its own.
  explicit Arena(size_t block_bytes = kBlockSize)
      : block_bytes_(block_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns a pointer to `bytes` bytes (never nullptr; bytes > 0).
  char* Allocate(size_t bytes);

  /// Allocation with pointer-size alignment (skiplist nodes).
  char* AllocateAligned(size_t bytes);

  /// Approximate total memory held by the arena.
  size_t MemoryUsage() const {
    return memory_usage_.load(std::memory_order_relaxed);
  }

 private:
  char* AllocateFallback(size_t bytes);
  char* AllocateNewBlock(size_t block_bytes);

  const size_t block_bytes_;
  char* alloc_ptr_ = nullptr;
  size_t alloc_bytes_remaining_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::atomic<size_t> memory_usage_{0};
};

inline char* Arena::Allocate(size_t bytes) {
  assert(bytes > 0);
  if (bytes <= alloc_bytes_remaining_) {
    char* result = alloc_ptr_;
    alloc_ptr_ += bytes;
    alloc_bytes_remaining_ -= bytes;
    return result;
  }
  return AllocateFallback(bytes);
}

}  // namespace tierbase

#endif  // TIERBASE_COMMON_ARENA_H_
