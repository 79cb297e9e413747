#include "rdbms/shard.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "util/fault_fs.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace staccato::rdbms {

namespace {

std::string ShardsMetaPath(const std::string& dir) {
  return dir + "/shards.meta";
}

// The meta file's magic versions the placement: STACSHR2 directories place
// documents round-robin, and a STACSHRD directory was written with the
// retired id-hash placement, whose shards hold other documents.
constexpr char kMetaMagic[] = "STACSHR2";
constexpr char kRetiredMetaMagic[] = "STACSHRD";
constexpr size_t kMetaMagicLen = sizeof(kMetaMagic) - 1;

/// Persists the shard count ("STACSHR2 <n>\n", atomic rename plus a
/// directory sync) so OpenExisting recovers the partition width without
/// guessing from the directory listing.
Status WriteShardsMeta(const std::string& dir, size_t shards) {
  return util::WriteFileAtomic(
      dir, ShardsMetaPath(dir), StringPrintf("%s %zu\n", kMetaMagic, shards));
}

Result<size_t> ReadShardsMeta(const std::string& dir) {
  const std::string path = ShardsMetaPath(dir);
  STACCATO_ASSIGN_OR_RETURN(std::string data, util::ReadFile(path));
  if (data.compare(0, kMetaMagicLen, kRetiredMetaMagic) == 0) {
    return Status::Corruption(
        dir + " places documents by the retired id hash; reload the "
        "database from its source documents");
  }
  size_t shards = 0;
  if (data.compare(0, kMetaMagicLen, kMetaMagic) != 0 ||
      sscanf(data.c_str() + kMetaMagicLen, " %zu", &shards) != 1 ||
      shards == 0) {
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
  // Round-robin leaves shard s with every N-th document from s on: the
  // recovered counts must be exactly that split of their total.
  const size_t total = db->NumSfas();
  for (size_t s = 0; s < n; ++s) {
    const size_t want = (total + n - 1 - s) / n;
    if (db->shards_[s]->NumSfas() != want) {
      return Status::Corruption(StringPrintf(
          "shard %zu holds %zu documents but the round-robin split of %zu "
          "assigns it %zu",
          s, db->shards_[s]->NumSfas(), total, want));
    }
  }
  return db;
}

Status ShardedDb::Load(const OcrDataset& dataset, const LoadOptions& opts) {
  STACCATO_RETURN_NOT_OK(CheckDataset(dataset));
  const size_t n = shards_.size();
  // Route lines to their owning shards in ascending global order, so line
  // g becomes shard g % n's local document g / n. Corpus name and per-line
  // page numbers are preserved: DocName and Year — the schema columns
  // equality predicates see — are shard-invariant.
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
  return Status::OK();
}

Status ShardedDb::Append(const DocumentInput& doc) {
  // The mutex only orders appends: the next global id is the document
  // count, and a failed shard append leaves that count unchanged.
  util::MutexLock lock(&append_mu_);
  return shards_[ShardOfDoc(NumSfas(), shards_.size())]->Append(doc);
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
  std::set<DocId> out;
  for (size_t s = 0; s < n; ++s) {
    STACCATO_ASSIGN_OR_RETURN(std::set<DocId> local,
                              shards_[s]->GroundTruthFor(pattern));
    for (DocId doc : local) out.insert(GlobalDocId(s, doc, n));
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
