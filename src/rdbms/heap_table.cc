#include "rdbms/heap_table.h"

#include <sys/stat.h>

#include <atomic>

#include "util/fault_fs.h"
#include "util/strings.h"

namespace staccato::rdbms {

namespace {
Result<FILE*> OpenFile(const std::string& path, bool truncate) {
  FILE* f = fopen(path.c_str(), truncate ? "w+b" : "r+b");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  return f;
}
}  // namespace

uint64_t HeapTable::NextCacheSpace() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void HeapTable::SetSharedCache(cache::BufferCache* cache) {
  util::MutexLock lock(&latch_);
  shared_cache_ = cache;
}

Result<std::unique_ptr<HeapTable>> HeapTable::Create(const std::string& path,
                                                     Schema schema,
                                                     size_t pool_pages) {
  auto table = std::unique_ptr<HeapTable>(
      new HeapTable(path, std::move(schema), pool_pages));
  STACCATO_ASSIGN_OR_RETURN(table->file_, OpenFile(path, /*truncate=*/true));
  return table;
}

Result<std::unique_ptr<HeapTable>> HeapTable::Open(const std::string& path,
                                                   Schema schema,
                                                   size_t pool_pages) {
  auto table = std::unique_ptr<HeapTable>(
      new HeapTable(path, std::move(schema), pool_pages));
  STACCATO_ASSIGN_OR_RETURN(table->file_, OpenFile(path, /*truncate=*/false));
  fseek(table->file_, 0, SEEK_END);
  long size = ftell(table->file_);
  if (size < 0 || size % static_cast<long>(kPageSize) != 0) {
    return Status::Corruption("heap file size is not a multiple of page size");
  }
  // No other thread can hold the table yet, but FetchPage's contract is
  // REQUIRES(latch_) — hold it so the contract stays uniform.
  util::MutexLock lock(&table->latch_);
  table->num_pages_ = static_cast<size_t>(size) / kPageSize;
  // Recount tuples (cheap metadata pass; a production system would keep a
  // catalog entry instead).
  for (uint32_t p = 0; p < table->num_pages_; ++p) {
    STACCATO_ASSIGN_OR_RETURN(Frame * f, table->FetchPage(p));
    table->num_tuples_ += f->page.NumSlots();
  }
  return table;
}

HeapTable::~HeapTable() {
  if (file_ != nullptr) {
    (void)Flush();
    fclose(file_);
  }
}

Status HeapTable::WritePage(uint32_t page_no, const SlottedPage& page) {
  if (fseek(file_, static_cast<long>(page_no) * static_cast<long>(kPageSize),
            SEEK_SET) != 0) {
    return Status::IOError("seek failed");
  }
  STACCATO_RETURN_NOT_OK(util::CheckedWrite(file_, page.raw(), kPageSize, path_));
  ++io_.pages_written;
  if (shared_cache_ != nullptr) {
    // Write-through: the shared copy always matches what is on disk, so a
    // later pool miss can serve it without a coherence check. The handle
    // is dropped immediately — the entry goes straight onto the LRU list.
    shared_cache_->Insert(cache::CacheKey{cache_space_, page_no, 0},
                          std::string(page.raw(), kPageSize));
  }
  return Status::OK();
}

Status HeapTable::EvictOne() {
  if (lru_.empty()) return Status::Internal("buffer pool empty");
  uint32_t victim = lru_.back();
  auto it = pool_.find(victim);
  if (it->second.dirty) {
    STACCATO_RETURN_NOT_OK(WritePage(victim, it->second.page));
  }
  lru_.pop_back();
  pool_.erase(it);
  return Status::OK();
}

Result<HeapTable::Frame*> HeapTable::FetchPage(uint32_t page_no) {
  ++io_.page_reads;
  auto it = pool_.find(page_no);
  if (it != pool_.end()) {
    // Relink the frame's LRU node at the front: a pool hit allocates
    // nothing, so a warm scan's allocations do not grow with its pages.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return &it->second;
  }
  while (pool_.size() >= pool_cap_) {
    STACCATO_RETURN_NOT_OK(EvictOne());
  }
  Frame frame;
  bool filled = false;
  if (page_no < num_pages_ && shared_cache_ != nullptr) {
    // Second tier: a pool miss consults the shared buffer cache before
    // disk. The pinned bytes are copied into the pool frame and released.
    cache::BufferCache::Handle h =
        shared_cache_->Lookup(cache::CacheKey{cache_space_, page_no, 0});
    if (h && h.value().size() == kPageSize) {
      std::memcpy(frame.page.raw(), h.value().data(), kPageSize);
      ++io_.cache_hits;
      filled = true;
    }
  }
  if (!filled) {
    ++io_.page_misses;
    io_.bytes_read += kPageSize;
    if (page_no < num_pages_) {
      if (fseek(file_,
                static_cast<long>(page_no) * static_cast<long>(kPageSize),
                SEEK_SET) != 0) {
        return Status::IOError("seek failed");
      }
      if (fread(frame.page.raw(), 1, kPageSize, file_) != kPageSize) {
        return Status::IOError("short read");
      }
      if (shared_cache_ != nullptr) {
        shared_cache_->Insert(cache::CacheKey{cache_space_, page_no, 0},
                              std::string(frame.page.raw(), kPageSize));
      }
    } else {
      frame.page.Init();
    }
  }
  auto [ins, ok] = pool_.emplace(page_no, std::move(frame));
  lru_.push_front(page_no);
  ins->second.lru_it = lru_.begin();
  return &ins->second;
}

Result<RecordId> HeapTable::Insert(const Tuple& tuple) {
  util::MutexLock lock(&latch_);
  STACCATO_RETURN_NOT_OK(schema_.CheckTuple(tuple));
  BinaryWriter w;
  schema_.EncodeTuple(tuple, &w);
  const std::string& rec = w.buffer();
  if (rec.size() > kPageSize / 2) {
    return Status::InvalidArgument(
        "record too large for slotted page; store large payloads as blobs");
  }
  uint32_t page_no =
      num_pages_ == 0 ? 0 : static_cast<uint32_t>(num_pages_ - 1);
  STACCATO_ASSIGN_OR_RETURN(Frame * frame, FetchPage(page_no));
  if (!frame->page.Fits(rec.size())) {
    page_no = static_cast<uint32_t>(num_pages_);
    STACCATO_ASSIGN_OR_RETURN(frame, FetchPage(page_no));
  }
  STACCATO_ASSIGN_OR_RETURN(uint16_t slot, frame->page.Insert(rec));
  frame->dirty = true;
  if (page_no >= num_pages_) num_pages_ = page_no + 1;
  ++num_tuples_;
  return RecordId{page_no, slot};
}

Result<Tuple> HeapTable::Get(RecordId rid) {
  util::MutexLock lock(&latch_);
  if (rid.page >= num_pages_) return Status::NotFound("page out of range");
  STACCATO_ASSIGN_OR_RETURN(Frame * frame, FetchPage(rid.page));
  STACCATO_ASSIGN_OR_RETURN(std::string_view rec, frame->page.Get(rid.slot));
  BinaryReader r(rec.data(), rec.size());
  return schema_.DecodeTuple(&r);
}

Status HeapTable::ScanRecords(
    const std::function<bool(RecordId, std::string_view)>& fn,
    RecordId from) {
  util::MutexLock lock(&latch_);
  for (uint32_t p = from.page; p < num_pages_; ++p) {
    STACCATO_ASSIGN_OR_RETURN(Frame * frame, FetchPage(p));
    uint16_t slots = frame->page.NumSlots();
    for (uint16_t s = p == from.page ? from.slot : 0; s < slots; ++s) {
      STACCATO_ASSIGN_OR_RETURN(std::string_view rec, frame->page.Get(s));
      if (!fn(RecordId{p, s}, rec)) return Status::OK();
    }
  }
  return Status::OK();
}

Status HeapTable::Scan(const std::function<bool(RecordId, const Tuple&)>& fn,
                       RecordId from) {
  Status decode_status;
  STACCATO_RETURN_NOT_OK(ScanRecords([&](RecordId rid, std::string_view rec) {
    BinaryReader r(rec.data(), rec.size());
    Result<Tuple> t = schema_.DecodeTuple(&r);
    if (!t.ok()) {
      decode_status = t.status();
      return false;
    }
    return fn(rid, *t);
  }, from));
  return decode_status;
}

Status HeapTable::Flush() {
  util::MutexLock lock(&latch_);
  return FlushLocked();
}

Status HeapTable::FlushLocked() {
  for (auto& [page_no, frame] : pool_) {
    if (frame.dirty) {
      STACCATO_RETURN_NOT_OK(WritePage(page_no, frame.page));
      frame.dirty = false;
    }
  }
  return util::CheckedFlush(file_, path_);
}

Status HeapTable::Sync() {
  util::MutexLock lock(&latch_);
  STACCATO_RETURN_NOT_OK(FlushLocked());
  return util::CheckedSync(file_, path_);
}

Status HeapTable::EvictAll() {
  util::MutexLock lock(&latch_);
  // Write dirty frames back BEFORE dropping them: swallowing a failed
  // write-back here would make the next FetchPage silently serve stale
  // bytes from disk (regression-tested in rdbms_test).
  STACCATO_RETURN_NOT_OK(FlushLocked());
  pool_.clear();
  lru_.clear();
  // A "cold cache" must be cold in both tiers, or the next scan would be
  // served warm from the shared cache.
  if (shared_cache_ != nullptr) shared_cache_->EraseSpace(cache_space_);
  return Status::OK();
}

}  // namespace staccato::rdbms
