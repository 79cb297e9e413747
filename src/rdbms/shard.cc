#include "rdbms/shard.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/fault_fs.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace staccato::rdbms {

namespace {

std::string ShardsMetaPath(const std::string& dir) {
  return dir + "/shards.meta";
}

/// Persists the shard count ("STACSHRD <n>\n", atomic rename plus a
/// directory sync) so OpenExisting recovers the partition width without
/// guessing from the directory listing.
Status WriteShardsMeta(const std::string& dir, size_t shards) {
  const std::string path = ShardsMetaPath(dir);
  const std::string tmp = path + ".tmp";
  const std::string body = StringPrintf("STACSHRD %zu\n", shards);
  FILE* f = fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + tmp);
  Status st = util::CheckedWrite(f, body.data(), body.size(), tmp);
  if (st.ok()) st = util::CheckedSync(f, tmp);
  fclose(f);
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot commit " + path);
  }
  return util::SyncDir(dir);  // make the rename itself durable
}

Result<size_t> ReadShardsMeta(const std::string& dir) {
  const std::string path = ShardsMetaPath(dir);
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no shard meta at " + path);
  char buf[64] = {0};
  size_t n = fread(buf, 1, sizeof(buf) - 1, f);
  fclose(f);
  size_t shards = 0;
  if (n == 0 || sscanf(buf, "STACSHRD %zu", &shards) != 1 || shards == 0) {
    return Status::Corruption("bad shard meta file " + path);
  }
  return shards;
}

/// The total cache budget is divided evenly across the (at least one)
/// shards so an N-shard database never uses more memory than a 1-shard one
/// (a zero slice disables that shard's cache, like any zero budget).
cache::CacheConfig PerShardCache(const cache::CacheConfig& total,
                                 size_t shards) {
  cache::CacheConfig per = total;
  per.budget_bytes = total.budget_bytes / shards;
  return per;
}

}  // namespace

std::string ShardDirName(const std::string& dir, size_t shard) {
  return StringPrintf("%s/shard.%zu", dir.c_str(), shard);
}

size_t ShardOfDoc(DocId doc, size_t num_shards) {
  if (num_shards <= 1) return 0;
  // splitmix64 finalizer: the placement must be a pure, platform-stable
  // function of the global id so reopen / WAL replay / map rebuilds all
  // agree, and a stream of sequential ids must still spread evenly.
  uint64_t x = doc + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<size_t>(x % num_shards);
}

Result<std::unique_ptr<ShardedDb>> ShardedDb::Open(const std::string& dir,
                                                   ShardConfig config) {
  const size_t n = std::max<size_t>(1, config.shards);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory " + dir);
  auto db = std::unique_ptr<ShardedDb>(new ShardedDb(dir));
  db->shards_.reserve(n);
  const cache::CacheConfig per_cache = PerShardCache(config.cache, n);
  for (size_t s = 0; s < n; ++s) {
    STACCATO_ASSIGN_OR_RETURN(std::unique_ptr<StaccatoDb> shard,
                              StaccatoDb::Open(ShardDirName(dir, s), per_cache));
    db->shards_.push_back(std::move(shard));
  }
  STACCATO_RETURN_NOT_OK(WriteShardsMeta(dir, n));
  util::MutexLock lock(&db->mu_);
  STACCATO_RETURN_NOT_OK(db->RebuildMapLocked());
  return db;
}

Result<std::unique_ptr<ShardedDb>> ShardedDb::OpenExisting(
    const std::string& dir, ShardConfig config) {
  STACCATO_ASSIGN_OR_RETURN(size_t n, ReadShardsMeta(dir));
  if (config.shards != 0 && config.shards != n) {
    return Status::InvalidArgument(StringPrintf(
        "database was created with %zu shards, cannot reopen with %zu "
        "(the partition is fixed at creation time)",
        n, config.shards));
  }
  auto db = std::unique_ptr<ShardedDb>(new ShardedDb(dir));
  db->shards_.reserve(n);
  const cache::CacheConfig per_cache = PerShardCache(config.cache, n);
  for (size_t s = 0; s < n; ++s) {
    STACCATO_ASSIGN_OR_RETURN(
        std::unique_ptr<StaccatoDb> shard,
        StaccatoDb::OpenExisting(ShardDirName(dir, s), per_cache));
    db->shards_.push_back(std::move(shard));
  }
  util::MutexLock lock(&db->mu_);
  STACCATO_RETURN_NOT_OK(db->RebuildMapLocked());
  return db;
}

Status ShardedDb::RebuildMapLocked() {
  const size_t n = shards_.size();
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->NumSfas();
  auto map = std::make_shared<ShardMap>();
  map->local_to_global.resize(n);
  for (DocId g = 0; g < total; ++g) {
    map->local_to_global[ShardOfDoc(g, n)].push_back(g);
  }
  for (size_t s = 0; s < n; ++s) {
    if (map->local_to_global[s].size() != shards_[s]->NumSfas()) {
      return Status::Corruption(StringPrintf(
          "shard %zu holds %zu documents but the stable-hash partition "
          "assigns it %zu — directory opened with the wrong shard layout?",
          s, shards_[s]->NumSfas(), map->local_to_global[s].size()));
    }
  }
  map->total = total;
  map_ = std::move(map);
  return Status::OK();
}

std::shared_ptr<const ShardMap> ShardedDb::map_snapshot() const {
  util::MutexLock lock(&mu_);
  return map_;
}

Status ShardedDb::Load(const OcrDataset& dataset, const LoadOptions& opts) {
  STACCATO_RETURN_NOT_OK(CheckDataset(dataset));
  const size_t n = shards_.size();
  // Route lines to their owning shards in ascending global order, so each
  // shard's local ids (its load order) agree with the id map. Corpus name
  // and per-line page numbers are preserved: DocName and Year — the
  // schema columns equality predicates see — are shard-invariant.
  std::vector<OcrDataset> parts(n);
  for (OcrDataset& part : parts) {
    part.corpus.name = dataset.corpus.name;
    part.corpus.num_pages = dataset.corpus.num_pages;
  }
  for (size_t g = 0; g < dataset.corpus.lines.size(); ++g) {
    OcrDataset& part = parts[ShardOfDoc(g, n)];
    part.corpus.lines.push_back(dataset.corpus.lines[g]);
    part.corpus.page_of_line.push_back(dataset.corpus.page_of_line[g]);
    part.sfas.push_back(dataset.sfas[g]);
  }
  // Shard loads run serially here: each Load already parallelizes its
  // Staccato construction over the shared pool.
  for (size_t s = 0; s < n; ++s) {
    STACCATO_RETURN_NOT_OK(shards_[s]->Load(parts[s], opts));
  }
  util::MutexLock lock(&mu_);
  return RebuildMapLocked();
}

Status ShardedDb::Append(const DocumentInput& doc) {
  util::MutexLock lock(&mu_);
  const DocId g = map_->total;
  const size_t s = ShardOfDoc(g, shards_.size());
  // Publish the id-map extension BEFORE the shard append: a concurrent
  // query snapshots its plan contexts first and the map second, so if
  // its contexts can see the new document, the map it reads can
  // translate it. The retraction on failure is unobservable — both the
  // map swap and the shard append happen under the map mutex.
  auto next = std::make_shared<ShardMap>(*map_);
  next->local_to_global[s].push_back(g);
  next->total = g + 1;
  std::shared_ptr<const ShardMap> prev = map_;
  map_ = std::move(next);
  Status st = shards_[s]->Append(doc);
  if (!st.ok()) map_ = std::move(prev);
  return st;
}

Status ShardedDb::Checkpoint() {
  return ParallelFor(shards_.size(), 1, [this](size_t s) -> Status {
    return shards_[s]->Checkpoint();
  });
}

Status ShardedDb::BuildInvertedIndex(
    const std::vector<std::string>& dictionary_terms) {
  return ParallelFor(shards_.size(), 1, [&](size_t s) -> Status {
    return shards_[s]->BuildInvertedIndex(dictionary_terms);
  });
}

Result<std::set<DocId>> ShardedDb::GroundTruthFor(const std::string& pattern) {
  const size_t n = shards_.size();
  std::vector<std::set<DocId>> local(n);
  for (size_t s = 0; s < n; ++s) {
    STACCATO_ASSIGN_OR_RETURN(local[s], shards_[s]->GroundTruthFor(pattern));
  }
  // Map snapshot AFTER the shard scans: any document a scan saw was
  // published into the map before its shard append (see Append).
  std::shared_ptr<const ShardMap> map = map_snapshot();
  std::set<DocId> out;
  for (size_t s = 0; s < n; ++s) {
    for (DocId local_doc : local[s]) {
      if (local_doc >= map->local_to_global[s].size()) {
        return Status::Internal("shard document missing from the id map");
      }
      out.insert(map->local_to_global[s][local_doc]);
    }
  }
  return out;
}

size_t ShardedDb::NumSfas() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->NumSfas();
  return total;
}

StorageReport ShardedDb::Storage() const {
  StorageReport out;
  for (const auto& shard : shards_) {
    StorageReport r = shard->Storage();
    out.kmap_table_bytes += r.kmap_table_bytes;
    out.blob_bytes += r.blob_bytes;
    out.staccato_table_bytes += r.staccato_table_bytes;
    out.index_entries += r.index_entries;
  }
  return out;
}

Status ShardedDb::DropCaches() {
  for (const auto& shard : shards_) {
    STACCATO_RETURN_NOT_OK(shard->DropCaches());
  }
  return Status::OK();
}

}  // namespace staccato::rdbms
