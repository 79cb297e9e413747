// ShardedDb: the corpus partitioned by stable hash into N independent
// StaccatoDb shards, queried by scatter-gather top-k.
//
// Each shard is a complete single-partition database — its own heap
// tables, postings relation, blob store, WAL, and cache namespaces (the
// per-instance CacheKey::space of PR 5 keeps shard pages disjoint inside
// the one shared budget) — living in its own subdirectory `shard.<i>` of
// the database directory. Documents route to shards by a stable hash of
// their global id, so the partition is a pure function of (doc, N):
// reopening, replaying a WAL, or rebuilding the id map always reproduces
// the same placement.
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
// every PreparedQuery executes as a scatter-gather (a plain StaccatoDb is
// its 1-shard case), so a Session built from a ShardedDb plans per shard
// and remaps answers through this database's id map.
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

/// Stable hash partition: the owning shard of global document `doc` among
/// `num_shards` shards. Pure function of its arguments (splitmix64
/// finalizer), identical across runs, platforms, and reopens.
size_t ShardOfDoc(DocId doc, size_t num_shards);

/// \brief Immutable snapshot of the global <-> shard-local document id
/// mapping. Shard answers carry shard-local ids; the gather stage remaps
/// them through `local_to_global` before ranking. Rebuildable from the
/// shard document counts alone (the partition is a pure function of the
/// global id), which is how OpenExisting recovers it.
struct ShardMap {
  std::vector<std::vector<DocId>> local_to_global;  ///< [shard][local] = global
  size_t total = 0;  ///< global documents (== next Append's id)
};

/// \brief N StaccatoDb shards behind the single-partition facade, queried
/// through a Session (rdbms/session.h) like a plain StaccatoDb.
///
/// Concurrency: Append is safe against concurrent query execution (it
/// publishes the id-map extension before touching the owning shard, so a
/// query's map snapshot always covers every document its plan contexts
/// can see). Load, Checkpoint, and BuildInvertedIndex keep StaccatoDb's
/// external-exclusive contract: no concurrent queries while they run.
class ShardedDb {
 public:
  /// Creates a fresh sharded database under `dir` (created if needed):
  /// N empty shards in `shard.<i>` subdirectories plus a `shards.meta`
  /// file recording N for OpenExisting.
  static Result<std::unique_ptr<ShardedDb>> Open(const std::string& dir,
                                                 ShardConfig config = {});

  /// Reopens a sharded database: reads the persisted shard count,
  /// reopens every shard (each replays its own WAL), and rebuilds the
  /// global id map from the recovered per-shard document counts. A
  /// nonzero `config.shards` must match the persisted count — the
  /// partition is fixed at creation time.
  static Result<std::unique_ptr<ShardedDb>> OpenExisting(
      const std::string& dir, ShardConfig config = {});

  /// Bulk-loads a dataset: lines are routed to their owning shards (in
  /// ascending global order, so shard-local ids agree with the id map)
  /// and each shard runs its own Load. Corpus name and page numbers are
  /// preserved per line, so DocName / Year values — and therefore
  /// equality-predicate results — are identical for every shard count.
  Status Load(const OcrDataset& dataset, const LoadOptions& opts);

  /// Appends one document to its owning shard (per-shard WAL + delta).
  /// The global id is the next unassigned one; the id map is extended
  /// before the shard append so concurrent queries never observe a
  /// document the map cannot translate.
  Status Append(const DocumentInput& doc);

  /// Checkpoints every shard, shard-parallel (each folds its own delta
  /// into a fresh epoch and truncates its own WAL).
  Status Checkpoint();

  /// Builds each shard's dictionary inverted index, shard-parallel.
  /// Every shard indexes the same dictionary, so an anchor term resolves
  /// identically everywhere (a shard without postings probes to empty).
  Status BuildInvertedIndex(const std::vector<std::string>& dictionary_terms);

  /// Ground-truth answer set, remapped to global doc ids.
  Result<std::set<DocId>> GroundTruthFor(const std::string& pattern);

  /// Total documents across shards (base + delta).
  size_t NumSfas() const;

  /// Aggregate storage report (field-wise sum over shards).
  StorageReport Storage() const;

  /// Drops every shard's page/blob caches so the next query runs cold.
  Status DropCaches();

  size_t num_shards() const { return shards_.size(); }
  StaccatoDb* shard(size_t i) { return shards_[i].get(); }

  /// Immutable snapshot of the global <-> local id mapping. Taken under
  /// the map mutex; the snapshot itself is safe to read concurrently.
  std::shared_ptr<const ShardMap> map_snapshot() const;

 private:
  explicit ShardedDb(std::string dir) : dir_(std::move(dir)) {}

  /// Recomputes the id map from the shards' current document counts
  /// (pure function of total and N) and verifies the per-shard counts
  /// match the stable-hash partition.
  Status RebuildMapLocked() REQUIRES(mu_);

  std::string dir_;
  std::vector<std::unique_ptr<StaccatoDb>> shards_;
  /// Guards the id map pointer (and serializes Append end to end, so a
  /// failed shard append can retract its map extension unobserved).
  mutable util::Mutex mu_;
  std::shared_ptr<const ShardMap> map_ GUARDED_BY(mu_);
};

}  // namespace staccato::rdbms
