#include "lsm/table.h"

#include <cassert>

#include "common/coding.h"
#include "common/crc32c.h"

namespace tierbase {
namespace lsm {

TableBuilder::TableBuilder(std::unique_ptr<WritableFile> file,
                           TableBuilderOptions options)
    : file_(std::move(file)),
      options_(options),
      data_block_(options.restart_interval),
      index_block_(1),
      bloom_(options.bloom_bits_per_key) {}

Status TableBuilder::Add(const Slice& internal_key, const Slice& value) {
  assert(!finished_);
  if (smallest_.empty()) smallest_.assign(internal_key.data(),
                                          internal_key.size());
  largest_.assign(internal_key.data(), internal_key.size());

  bloom_.AddKey(ExtractUserKey(internal_key));
  data_block_.Add(internal_key, value);
  ++num_entries_;

  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    return FlushDataBlock();
  }
  return Status::OK();
}

Status TableBuilder::FlushDataBlock() {
  if (data_block_.empty()) return Status::OK();
  pending_index_key_ = data_block_.last_key();
  Slice contents = data_block_.Finish();

  uint64_t offset = file_->Size();
  TIERBASE_RETURN_IF_ERROR(file_->Append(contents));
  std::string crc;
  PutFixed32(&crc, crc32c::Mask(crc32c::Value(contents.data(), contents.size())));
  TIERBASE_RETURN_IF_ERROR(file_->Append(crc));

  std::string handle;
  PutVarint64(&handle, offset);
  PutVarint64(&handle, contents.size());
  index_block_.Add(pending_index_key_, handle);

  data_block_.Reset();
  return Status::OK();
}

Status TableBuilder::Finish() {
  assert(!finished_);
  TIERBASE_RETURN_IF_ERROR(FlushDataBlock());

  // Filter section.
  uint64_t filter_off = file_->Size();
  std::string filter = bloom_.Finish();
  TIERBASE_RETURN_IF_ERROR(file_->Append(filter));

  // Index block.
  uint64_t index_off = file_->Size();
  Slice index_contents = index_block_.Finish();
  TIERBASE_RETURN_IF_ERROR(file_->Append(index_contents));

  // Footer.
  std::string footer;
  PutFixed64(&footer, filter_off);
  PutFixed64(&footer, filter.size());
  PutFixed64(&footer, index_off);
  PutFixed64(&footer, index_contents.size());
  PutFixed64(&footer, kTableMagic);
  TIERBASE_RETURN_IF_ERROR(file_->Append(footer));

  TIERBASE_RETURN_IF_ERROR(file_->Sync());
  TIERBASE_RETURN_IF_ERROR(file_->Close());
  finished_ = true;
  return Status::OK();
}

Result<std::shared_ptr<Table>> Table::Open(const std::string& path,
                                           uint64_t file_number,
                                           BlockCache* block_cache) {
  std::shared_ptr<Table> table(new Table());
  table->file_number_ = file_number;
  table->block_cache_ = block_cache;
  Status s = env::NewRandomAccessFile(path, &table->file_);
  if (!s.ok()) return s;

  uint64_t size = table->file_->Size();
  if (size < kFooterSize) return Status::Corruption("table: too small");

  std::string footer;
  s = table->file_->Read(size - kFooterSize, kFooterSize, &footer);
  if (!s.ok()) return s;
  uint64_t filter_off = DecodeFixed64(footer.data());
  uint64_t filter_size = DecodeFixed64(footer.data() + 8);
  uint64_t index_off = DecodeFixed64(footer.data() + 16);
  uint64_t index_size = DecodeFixed64(footer.data() + 24);
  uint64_t magic = DecodeFixed64(footer.data() + 32);
  if (magic != kTableMagic) return Status::Corruption("table: bad magic");

  s = table->file_->Read(filter_off, filter_size, &table->filter_);
  if (!s.ok()) return s;

  std::string index_contents;
  s = table->file_->Read(index_off, index_size, &index_contents);
  if (!s.ok()) return s;
  table->index_ = std::make_unique<Block>(std::move(index_contents));
  return table;
}

Status Table::ReadBlockAt(uint64_t offset, uint64_t size,
                          std::shared_ptr<Block>* block) {
  if (block_cache_ != nullptr) {
    *block = block_cache_->Lookup(file_number_, offset);
    if (*block != nullptr) return Status::OK();
  }
  std::string contents;
  TIERBASE_RETURN_IF_ERROR(file_->Read(offset, size + 4, &contents));
  if (contents.size() != size + 4) {
    return Status::Corruption("table: short block read");
  }
  uint32_t stored = crc32c::Unmask(DecodeFixed32(contents.data() + size));
  contents.resize(size);
  if (crc32c::Value(contents.data(), size) != stored) {
    return Status::Corruption("table: block crc mismatch");
  }
  *block = std::make_shared<Block>(std::move(contents));
  if (block_cache_ != nullptr) {
    block_cache_->Insert(file_number_, offset, *block);
  }
  return Status::OK();
}

Status Table::Get(const Slice& user_key, SequenceNumber snapshot,
                  std::string* value, bool* is_deleted) {
  if (!BloomFilterMayMatch(filter_, user_key)) {
    return Status::NotFound("bloom");
  }

  std::string seek_key;
  AppendInternalKey(&seek_key, user_key, snapshot, kValueTypeForSeek);

  Block::Iterator index_iter(index_.get());
  index_iter.Seek(seek_key);
  if (!index_iter.Valid()) return Status::NotFound("");

  Slice handle = index_iter.value();
  uint64_t offset = 0, size = 0;
  if (!GetVarint64(&handle, &offset) || !GetVarint64(&handle, &size)) {
    return Status::Corruption("table: bad index handle");
  }

  std::shared_ptr<Block> block;
  TIERBASE_RETURN_IF_ERROR(ReadBlockAt(offset, size, &block));

  Block::Iterator data_iter(block.get());
  data_iter.Seek(seek_key);
  if (!data_iter.Valid()) return Status::NotFound("");
  Slice found = data_iter.key();
  if (ExtractUserKey(found) != user_key) return Status::NotFound("");

  if (ExtractValueType(found) == kTypeDeletion) {
    *is_deleted = true;
    return Status::OK();
  }
  *is_deleted = false;
  value->assign(data_iter.value().data(), data_iter.value().size());
  return Status::OK();
}

Table::Iterator::Iterator(Table* table)
    : table_(table),
      index_iter_(std::make_unique<Block::Iterator>(table->index_.get())) {}

bool Table::Iterator::Valid() const {
  return data_iter_ != nullptr && data_iter_->Valid();
}

void Table::Iterator::LoadBlock() {
  data_iter_.reset();
  data_block_.reset();
  if (!index_iter_->Valid()) return;
  Slice handle = index_iter_->value();
  uint64_t offset = 0, size = 0;
  Status s;
  if (!GetVarint64(&handle, &offset) || !GetVarint64(&handle, &size)) {
    s = Status::Corruption("table: bad index handle");
  } else {
    s = table_->ReadBlockAt(offset, size, &data_block_);
  }
  if (!s.ok()) {
    if (status_.ok()) status_ = s;
    return;
  }
  data_iter_ = std::make_unique<Block::Iterator>(data_block_.get());
}

void Table::Iterator::SkipEmptyBlocks() {
  while (status_.ok() && (data_iter_ == nullptr || !data_iter_->Valid()) &&
         index_iter_->Valid()) {
    index_iter_->Next();
    if (!index_iter_->Valid()) break;
    LoadBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
  }
}

void Table::Iterator::SeekToFirst() {
  index_iter_->SeekToFirst();
  if (!index_iter_->Valid()) {
    data_iter_.reset();
    return;
  }
  LoadBlock();
  if (data_iter_ != nullptr) data_iter_->SeekToFirst();
  SkipEmptyBlocks();
}

void Table::Iterator::Seek(const Slice& internal_key) {
  index_iter_->Seek(internal_key);
  if (!index_iter_->Valid()) {
    data_iter_.reset();
    return;
  }
  LoadBlock();
  if (data_iter_ != nullptr) data_iter_->Seek(internal_key);
  SkipEmptyBlocks();
}

void Table::Iterator::Next() {
  assert(Valid());
  data_iter_->Next();
  SkipEmptyBlocks();
}

Slice Table::Iterator::key() const { return data_iter_->key(); }
Slice Table::Iterator::value() const { return data_iter_->value(); }

}  // namespace lsm
}  // namespace tierbase
