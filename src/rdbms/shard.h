// ShardedDb: the corpus partitioned round-robin by global document id
// into N independent StaccatoDb shards, queried by scatter-gather top-k.
//
// Each shard is a complete single-partition database — its own heap
// tables, postings relation, blob store, WAL, and cache namespaces (the
// per-instance CacheKey::space keeps shard pages disjoint inside the one
// shared budget) — living in its own subdirectory `shard.<i>` of
// the database directory. Global document g lives on shard g % N as that
// shard's local document g / N (ShardOfDoc / GlobalDocId). Ids are
// assigned densely and in order, so every shard's documents are exactly
// its residue class: reopening, replaying a WAL, or appending reproduces
// the placement by arithmetic, with no id map to store or publish.
//
// Planning happens per shard: each shard keeps its own TermStats and
// table statistics, so a skewed shard can pick an index probe while its
// siblings scan. Execution is scatter-gather: every shard runs its plan
// over the shared ThreadPool and the per-shard top-k lists merge into one
// global ranking. The key optimization is *cross-shard threshold
// forwarding*: all in-flight shard evals share one TopKThreshold, so the
// running global k-th-best bound — not each shard's local one — drives
// the bounded DP's early termination. A selective query then prunes
// across shards: candidates on shard 3 die against answers found on
// shard 0. Forwarding is answer-neutral (the kernel prunes strictly
// below the threshold, and the global bound is at least as high as any
// local one), so ranked answers are bit-identical to the 1-shard answer
// for every shard count, thread count, and early-stop setting.
//
// Ingest routes Append to the owning shard (per-shard WAL + delta);
// Checkpoint and BuildInvertedIndex run shard-parallel. Session /
// PreparedQuery sit on top with the same API as for a plain StaccatoDb:
// every PreparedQuery executes as a scatter-gather over the shard list (a
// plain StaccatoDb is its 1-shard case), and the gather turns each
// shard's local ids into global ones with GlobalDocId.
//
// Caveat: global doc ids are stable across shard counts (DocName / Year
// equality predicates are shard-invariant), but the *DataKey / SFANum
// columns stored inside each shard* are shard-local ordinals — schema
//-level predicates over those columns are not portable across N.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/buffer_cache.h"
#include "metrics/metrics.h"
#include "ocr/corpus.h"
#include "rdbms/staccato_db.h"
#include "util/mutex.h"
#include "util/result.h"

namespace staccato::rdbms {

/// \brief Shard-count configuration. `shards == 0` creates one shard
/// (Open) or takes the persisted count (OpenExisting). `cache` is the
/// *total* budget for the whole database; it is divided evenly across
/// shards so a 4-shard database uses the same memory as a 1-shard one.
struct ShardConfig {
  size_t shards = 0;
  cache::CacheConfig cache = cache::CacheConfig::Default();
};

/// The directory of shard `i` under database directory `dir`
/// ("<dir>/shard.<i>"). The one place the shard-directory naming scheme
/// lives — scripts/lint.sh confines the literal to rdbms/shard.{h,cc}.
std::string ShardDirName(const std::string& dir, size_t shard);

/// Round-robin placement: global document `doc` lives on shard
/// `doc % num_shards`, as that shard's local document `doc / num_shards`
/// (`num_shards` >= 1).
inline size_t ShardOfDoc(DocId doc, size_t num_shards) {
  return static_cast<size_t>(doc % num_shards);
}

/// The inverse of the placement: the global id of shard `shard`'s local
/// document `local` among `num_shards` shards.
inline DocId GlobalDocId(size_t shard, DocId local, size_t num_shards) {
  return local * num_shards + shard;
}

/// \brief N StaccatoDb shards behind the single-partition facade, queried
/// through a Session (rdbms/session.h) like a plain StaccatoDb.
///
/// Concurrency: Append is safe against concurrent query execution — a
/// shard-local id translates to its global id by arithmetic alone, so
/// whatever documents a query's per-shard snapshots hold, the gather can
/// name them. Load, Checkpoint, and BuildInvertedIndex keep StaccatoDb's
/// external-exclusive contract: no concurrent queries while they run.
class ShardedDb {
 public:
  /// Creates a fresh sharded database under `dir` (created if needed):
  /// N empty shards in `shard.<i>` subdirectories plus a meta file
  /// recording N for OpenExisting.
  static Result<std::unique_ptr<ShardedDb>> Open(const std::string& dir,
                                                 ShardConfig config = {});

  /// Reopens a sharded database: reads the persisted shard count,
  /// reopens every shard (each replays its own WAL), and checks that the
  /// recovered per-shard document counts are the round-robin split of
  /// their total. A nonzero `config.shards` must match the persisted
  /// count — the partition is fixed at creation time. A directory written
  /// with the retired hash placement is refused with a Corruption that
  /// says to reload it.
  static Result<std::unique_ptr<ShardedDb>> OpenExisting(
      const std::string& dir, ShardConfig config = {});

  /// Bulk-loads a dataset: line g goes to shard g % N (in ascending
  /// global order, so its local id is g / N) and each shard runs its own
  /// Load. Corpus name and page numbers are
  /// preserved per line, so DocName / Year values — and therefore
  /// equality-predicate results — are identical for every shard count.
  Status Load(const OcrDataset& dataset, const LoadOptions& opts);

  /// Appends one document to its owning shard (per-shard WAL + delta).
  /// Its global id is the next unassigned one, the sum of the shard
  /// counts; a failed shard append leaves every count, and so the next
  /// id, unchanged.
  Status Append(const DocumentInput& doc);

  /// Checkpoints every shard, shard-parallel (each folds its own delta
  /// into a fresh epoch and truncates its own WAL).
  Status Checkpoint();

  /// Builds each shard's dictionary inverted index, shard-parallel.
  /// Every shard indexes the same dictionary, so an anchor term resolves
  /// identically everywhere (a shard without postings probes to empty).
  Status BuildInvertedIndex(const std::vector<std::string>& dictionary_terms);

  /// Ground-truth answer set, in global doc ids.
  Result<std::set<DocId>> GroundTruthFor(const std::string& pattern);

  /// Total documents across shards (base + delta).
  size_t NumSfas() const;

  /// Aggregate storage report (field-wise sum over shards).
  StorageReport Storage() const;

  /// Drops every shard's page/blob caches so the next query runs cold.
  Status DropCaches();

  size_t num_shards() const { return shards_.size(); }
  StaccatoDb* shard(size_t i) { return shards_[i].get(); }

 private:
  explicit ShardedDb(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  std::vector<std::unique_ptr<StaccatoDb>> shards_;
  /// Serializes Append end to end, so documents land in global-id order.
  util::Mutex append_mu_;
};

}  // namespace staccato::rdbms
