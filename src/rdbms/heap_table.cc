#include "rdbms/heap_table.h"

#include <atomic>
#include <cstring>

#include "util/fault_fs.h"

namespace staccato::rdbms {

namespace {
Result<FILE*> OpenFile(const std::string& path, bool truncate) {
  FILE* f = fopen(path.c_str(), truncate ? "w+b" : "r+b");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  return f;
}

uint64_t PageOffset(uint32_t page_no) {
  return static_cast<uint64_t>(page_no) * kPageSize;
}
}  // namespace

uint64_t HeapTable::NextCacheSpace() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Result<std::unique_ptr<HeapTable>> HeapTable::Create(
    const std::string& path, Schema schema, cache::BufferCache* cache) {
  auto table = std::unique_ptr<HeapTable>(
      new HeapTable(path, std::move(schema), cache));
  STACCATO_ASSIGN_OR_RETURN(table->file_, OpenFile(path, /*truncate=*/true));
  table->fd_ = fileno(table->file_);
  return table;
}

Result<std::unique_ptr<HeapTable>> HeapTable::Open(const std::string& path,
                                                   Schema schema,
                                                   cache::BufferCache* cache) {
  auto table = std::unique_ptr<HeapTable>(
      new HeapTable(path, std::move(schema), cache));
  STACCATO_ASSIGN_OR_RETURN(table->file_, OpenFile(path, /*truncate=*/false));
  table->fd_ = fileno(table->file_);
  fseek(table->file_, 0, SEEK_END);
  long size = ftell(table->file_);
  if (size < 0 || size % static_cast<long>(kPageSize) != 0) {
    return Status::Corruption("heap file size is not a multiple of page size");
  }
  const uint32_t pages = static_cast<uint32_t>(size / kPageSize);
  if (pages == 0) return table;
  // Recount tuples (cheap metadata pass; a production system would keep a
  // catalog entry instead). The last page becomes the tail. No other
  // thread can hold the table yet, but tail_ is GUARDED_BY the latch.
  util::MutexLock lock(&table->latch_);
  uint64_t tuples = 0;
  char buf[kPageSize] = {};
  for (uint32_t p = 0; p < pages; ++p) {
    char* page = p + 1 < pages ? buf : table->tail_.raw();
    STACCATO_RETURN_NOT_OK(util::CheckedPRead(table->fd_, page, kPageSize,
                                              PageOffset(p), path));
    tuples += PageView(page).NumSlots();
  }
  table->sealed_pages_.store(pages - 1, std::memory_order_relaxed);
  table->num_pages_.store(pages, std::memory_order_relaxed);
  table->num_tuples_.store(tuples, std::memory_order_relaxed);
  return table;
}

HeapTable::~HeapTable() {
  if (file_ != nullptr) {
    (void)Flush();
    fclose(file_);
  }
}

Result<HeapTable::PageKind> HeapTable::ReadPage(uint32_t page_no,
                                                PageRef* ref) const {
  if (page_no >= sealed_pages_.load(std::memory_order_acquire)) {
    util::MutexLock lock(&latch_);
    if (page_no >= num_pages_.load(std::memory_order_relaxed)) {
      return PageKind::kNone;
    }
    if (page_no == sealed_pages_.load(std::memory_order_relaxed)) {
      std::memcpy(ref->buf, tail_.raw(), kPageSize);
      ref->data = ref->buf;
      return PageKind::kTail;
    }
    // Sealed since the check above: read it like any sealed page.
  }
  if (cache_ == nullptr) {
    ref->data = ref->buf;
    STACCATO_RETURN_NOT_OK(util::CheckedPRead(fd_, ref->buf, kPageSize,
                                              PageOffset(page_no), path_));
    return PageKind::kSealed;
  }
  // A sealed page never changes, so a cached copy is valid for the life
  // of this table instance; a page enters the cache when it is read.
  const cache::CacheKey key{cache_space_, page_no, 0};
  ref->pin = cache_->Lookup(key);
  if (!ref->pin) {
    std::string page(kPageSize, '\0');
    STACCATO_RETURN_NOT_OK(util::CheckedPRead(fd_, page.data(), kPageSize,
                                              PageOffset(page_no), path_));
    ref->pin = cache_->Insert(key, std::move(page));
  }
  ref->data = ref->pin.value().data();
  return PageKind::kSealed;
}

Result<RecordId> HeapTable::Insert(const Tuple& tuple) {
  STACCATO_RETURN_NOT_OK(schema_.CheckTuple(tuple));
  BinaryWriter w;
  schema_.EncodeTuple(tuple, &w);
  const std::string& rec = w.buffer();
  if (rec.size() > kPageSize / 2) {
    return Status::InvalidArgument(
        "record too large for slotted page; store large payloads as blobs");
  }
  util::MutexLock lock(&latch_);
  uint32_t page_no = sealed_pages_.load(std::memory_order_relaxed);
  if (!tail_.Fits(rec.size())) {
    // Seal the tail: it reaches the file before a reader may pread it.
    STACCATO_RETURN_NOT_OK(FlushLocked());
    sealed_pages_.store(++page_no, std::memory_order_release);
    tail_.Init();
  }
  STACCATO_ASSIGN_OR_RETURN(uint16_t slot, tail_.Insert(rec));
  tail_dirty_ = true;
  num_pages_.store(page_no + 1, std::memory_order_release);
  num_tuples_.fetch_add(1, std::memory_order_release);
  return RecordId{page_no, slot};
}

Result<Tuple> HeapTable::Get(RecordId rid) const {
  PageRef ref;
  STACCATO_ASSIGN_OR_RETURN(PageKind kind, ReadPage(rid.page, &ref));
  if (kind == PageKind::kNone) return Status::NotFound("page out of range");
  STACCATO_ASSIGN_OR_RETURN(std::string_view rec,
                            PageView(ref.data).Get(rid.slot));
  BinaryReader r(rec.data(), rec.size());
  return schema_.DecodeTuple(&r);
}

Status HeapTable::ScanRecords(
    const std::function<bool(RecordId, std::string_view)>& fn,
    RecordId from) const {
  PageRef ref;
  for (uint32_t p = from.page;; ++p) {
    STACCATO_ASSIGN_OR_RETURN(PageKind kind, ReadPage(p, &ref));
    if (kind == PageKind::kNone) return Status::OK();
    const PageView page(ref.data);
    for (uint16_t s = p == from.page ? from.slot : 0; s < page.NumSlots();
         ++s) {
      STACCATO_ASSIGN_OR_RETURN(std::string_view rec, page.Get(s));
      if (!fn(RecordId{p, s}, rec)) return Status::OK();
    }
    // The tail is the last page; rows inserted after it was copied are
    // past this scan.
    if (kind == PageKind::kTail) return Status::OK();
  }
}

Status HeapTable::Scan(const std::function<bool(RecordId, const Tuple&)>& fn,
                       RecordId from) const {
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
  if (tail_dirty_) {
    const uint32_t tail = sealed_pages_.load(std::memory_order_relaxed);
    if (fseek(file_, static_cast<long>(PageOffset(tail)), SEEK_SET) != 0) {
      return Status::IOError("seek failed: " + path_);
    }
    STACCATO_RETURN_NOT_OK(
        util::CheckedWrite(file_, tail_.raw(), kPageSize, path_));
  }
  // The tail counts as written only once the bytes leave the stdio buffer:
  // pread reads the file, not the buffer.
  STACCATO_RETURN_NOT_OK(util::CheckedFlush(file_, path_));
  tail_dirty_ = false;
  return Status::OK();
}

Status HeapTable::Sync() {
  util::MutexLock lock(&latch_);
  STACCATO_RETURN_NOT_OK(FlushLocked());
  return util::CheckedSync(file_, path_);
}

}  // namespace staccato::rdbms
