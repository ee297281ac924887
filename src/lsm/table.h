// SST file format and reader.
//
// Layout:
//   data block*        (prefix-compressed Block, fixed32 masked-crc trailer)
//   bloom filter       (serialized BloomFilterBuilder output)
//   index block        (key = last internal key of data block,
//                       value = varint64 offset ++ varint64 size)
//   footer (40 bytes)  fixed64 filter_off | fixed64 filter_size |
//                      fixed64 index_off  | fixed64 index_size  |
//                      fixed64 magic

#ifndef TIERBASE_LSM_TABLE_H_
#define TIERBASE_LSM_TABLE_H_

#include <memory>
#include <string>

#include "common/env.h"
#include "common/slice.h"
#include "common/status.h"
#include "lsm/block.h"
#include "lsm/block_cache.h"
#include "lsm/bloom.h"
#include "lsm/internal_key.h"

namespace tierbase {
namespace lsm {

constexpr uint64_t kTableMagic = 0x54425f5353543231ULL;  // "TB_SST21"
constexpr size_t kFooterSize = 40;

struct TableBuilderOptions {
  size_t block_size = 4096;
  int restart_interval = 16;
  int bloom_bits_per_key = 10;
};

class TableBuilder {
 public:
  TableBuilder(std::unique_ptr<WritableFile> file,
               TableBuilderOptions options = {});

  /// Keys must arrive in strictly increasing internal-key order.
  Status Add(const Slice& internal_key, const Slice& value);
  /// Flushes remaining data, writes filter/index/footer, syncs, closes.
  Status Finish();

  uint64_t num_entries() const { return num_entries_; }
  uint64_t file_size() const { return file_->Size(); }
  const std::string& smallest_key() const { return smallest_; }
  const std::string& largest_key() const { return largest_; }

 private:
  Status FlushDataBlock();

  std::unique_ptr<WritableFile> file_;
  TableBuilderOptions options_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  BloomFilterBuilder bloom_;
  uint64_t num_entries_ = 0;
  std::string smallest_;
  std::string largest_;
  std::string pending_index_key_;  // Last key of the block being flushed.
  uint64_t pending_offset_ = 0;
  bool finished_ = false;
};

class Table {
 public:
  /// Opens an SST; the reader caches the index and filter in memory and
  /// serves data blocks through the (optional) shared block cache.
  static Result<std::shared_ptr<Table>> Open(const std::string& path,
                                             uint64_t file_number,
                                             BlockCache* block_cache);

  /// Point lookup. Sets *is_deleted on tombstone hits.
  /// Returns NotFound when the key is absent from this table.
  Status Get(const Slice& user_key, SequenceNumber snapshot,
             std::string* value, bool* is_deleted);

  /// Full-scan iterator (compaction and range scans).
  class Iterator {
   public:
    explicit Iterator(Table* table);
    bool Valid() const;
    void SeekToFirst();
    void Seek(const Slice& internal_key);
    void Next();
    Slice key() const;    // Internal key.
    Slice value() const;
    /// The first block read error. The iterator stops at it (Valid() turns
    /// false), so a caller that must see every entry checks this at the end.
    Status status() const { return status_; }

   private:
    void LoadBlock();
    void SkipEmptyBlocks();

    Table* table_;
    std::unique_ptr<Block::Iterator> index_iter_;
    std::shared_ptr<Block> data_block_;
    std::unique_ptr<Block::Iterator> data_iter_;
    Status status_;
  };

  uint64_t file_number() const { return file_number_; }
  uint64_t file_size() const { return file_->Size(); }

 private:
  Table() = default;

  Status ReadBlockAt(uint64_t offset, uint64_t size,
                     std::shared_ptr<Block>* block);

  std::unique_ptr<RandomAccessFile> file_;
  uint64_t file_number_ = 0;
  BlockCache* block_cache_ = nullptr;
  std::string filter_;
  std::unique_ptr<Block> index_;
};

}  // namespace lsm
}  // namespace tierbase

#endif  // TIERBASE_LSM_TABLE_H_
