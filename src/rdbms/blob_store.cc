#include "rdbms/blob_store.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "telemetry/metrics_registry.h"
#include "util/fault_fs.h"
#include "util/serde.h"

namespace staccato::rdbms {

Result<std::unique_ptr<BlobStore>> BlobStore::Create(
    const std::string& path, cache::BufferCache* cache) {
  auto store = std::unique_ptr<BlobStore>(new BlobStore(path, cache));
  store->file_ = fopen(path.c_str(), "w+b");
  if (store->file_ == nullptr) return Status::IOError("cannot create " + path);
  store->fd_ = fileno(store->file_);
  return store;
}

Result<std::unique_ptr<BlobStore>> BlobStore::Open(
    const std::string& path, cache::BufferCache* cache) {
  auto store = std::unique_ptr<BlobStore>(new BlobStore(path, cache));
  store->file_ = fopen(path.c_str(), "r+b");
  if (store->file_ == nullptr) return Status::IOError("cannot open " + path);
  store->fd_ = fileno(store->file_);
  fseek(store->file_, 0, SEEK_END);
  store->end_ = static_cast<uint64_t>(ftell(store->file_));
  return store;
}

BlobStore::~BlobStore() {
  if (file_ != nullptr) fclose(file_);
}

Result<BlobId> BlobStore::Put(const std::string& data) {
  if (fseek(file_, static_cast<long>(end_), SEEK_SET) != 0) {
    return Status::IOError("seek failed");
  }
  uint64_t len = data.size();
  STACCATO_RETURN_NOT_OK(util::CheckedWrite(file_, &len, sizeof(len), path_));
  STACCATO_RETURN_NOT_OK(
      util::CheckedWrite(file_, data.data(), data.size(), path_));
  BlobId id = end_;
  end_ += sizeof(len) + data.size();
  dirty_.store(true, std::memory_order_release);
  return id;
}

Status BlobStore::Flush() {
  if (file_ == nullptr) return Status::OK();
  STACCATO_RETURN_NOT_OK(util::CheckedFlush(file_, path_));
  dirty_.store(false, std::memory_order_release);
  return Status::OK();
}

Status BlobStore::Sync() {
  if (file_ == nullptr) return Status::OK();
  STACCATO_RETURN_NOT_OK(util::CheckedSync(file_, path_));
  dirty_.store(false, std::memory_order_release);
  return Status::OK();
}

Result<std::string> BlobStore::Get(BlobId id, BlobIoStats* tally) {
  if (id >= end_) return Status::NotFound("blob id out of range");
  // Writes go through the buffered FILE*; make them visible to pread once
  // per write burst. Double-checked so the steady read state takes no
  // lock. On flush failure the flag stays set — stale bytes must never be
  // served as a successful read.
  if (dirty_.load(std::memory_order_acquire)) {
    util::MutexLock lock(&flush_mu_);
    if (dirty_.load(std::memory_order_relaxed)) {
      if (fflush(file_) != 0) {
        return Status::IOError(std::string("flush before blob read: ") +
                               std::strerror(errno));
      }
      dirty_.store(false, std::memory_order_release);
    }
  }
  uint64_t len = 0;
  STACCATO_RETURN_NOT_OK(
      util::CheckedPRead(fd_, &len, sizeof(len), id, path_));
  // Overflow-safe bound: a corrupt header with len near UINT64_MAX must
  // land here, not wrap past the check into a giant allocation.
  const uint64_t avail = end_ - id;  // id < end_ checked above
  if (avail < sizeof(len) || len > avail - sizeof(len)) {
    return Status::Corruption("blob length past end of store");
  }
  std::string data(len, '\0');
  if (len > 0) {
    STACCATO_RETURN_NOT_OK(
        util::CheckedPRead(fd_, data.data(), len, id + sizeof(len), path_));
  }
  // Count only once the read fully succeeded, and on every path: GetCached
  // misses read through here, so both read flavours report identical
  // accounting for the same blob.
  reads_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(sizeof(len) + len, std::memory_order_relaxed);
  if (tally != nullptr) {
    ++tally->reads;
    tally->bytes_read += sizeof(len) + len;
  }
  // Process-wide mirrors of the per-store counters above, for scrapes.
  struct BlobMetrics {
    telemetry::Counter* reads;
    telemetry::Counter* bytes;
  };
  static const BlobMetrics m = [] {
    auto& r = telemetry::MetricsRegistry::Global();
    return BlobMetrics{r.GetCounter("staccato_blob_reads_total"),
                       r.GetCounter("staccato_blob_bytes_read_total")};
  }();
  m.reads->Increment();
  m.bytes->Increment(sizeof(len) + len);
  return data;
}

Result<cache::BufferCache::Handle> BlobStore::GetCached(
    const cache::CacheKey& key, BlobId id, BlobIoStats* tally) {
  if (cache_ != nullptr) {
    if (cache::BufferCache::Handle h = cache_->Lookup(key)) {
      reads_.fetch_add(1, std::memory_order_relaxed);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      if (tally != nullptr) {
        ++tally->reads;
        ++tally->cache_hits;
      }
      return h;
    }
  }
  // Get counts the reads and bytes.
  STACCATO_ASSIGN_OR_RETURN(std::string data, Get(id, tally));
  if (cache_ == nullptr) {
    return cache::BufferCache::Detached(std::move(data));
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  if (tally != nullptr) ++tally->cache_misses;
  return cache_->Insert(key, std::move(data));
}

}  // namespace staccato::rdbms
