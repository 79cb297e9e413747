// StaccatoDb: the end-to-end system of the paper. It owns the relational
// schema of Table 5 inside the mini-RDBMS, the blob stores holding
// serialized (Full and chunked) SFAs, and the dictionary-based inverted
// index that a Session (rdbms/session.h) queries under all four
// approaches:
//
//   MAP      — the single most likely transcription per line
//   k-MAP    — the k most likely transcriptions per line
//   FullSFA  — the entire transducer, stored as a BLOB
//   Staccato — the chunked approximation of Section 3
//
// Incremental ingest: after a bulk Load, single documents arrive through
// Append. Each append is made durable by one self-checking write-ahead log
// frame (rdbms/wal.h) before it is applied to a mutable in-memory delta
// generation; queries merge the delta with the immutable base tables at
// candidate generation, fetch, and eval. Checkpoint folds the delta into a
// fresh epoch of base files and commits it atomically through the
// `staccato.meta` pointer file, so a crash at any instant recovers exactly
// the committed prefix of appends (OpenExisting replays the log).
//
// The base files are one BaseEpoch (rdbms/base_epoch.h), the one place the
// relation set and its file layout are defined. Load and Checkpoint write
// every document through BaseEpoch::AppendDocument, so a checkpointed
// epoch equals a bulk load of the same documents.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "automata/trie.h"
#include "cache/buffer_cache.h"
#include "metrics/metrics.h"
#include "ocr/corpus.h"
#include "rdbms/base_epoch.h"
#include "rdbms/btree.h"
#include "rdbms/delta.h"
#include "rdbms/plan.h"
#include "rdbms/wal.h"
#include "sfa/sfa.h"
#include "staccato/chunking.h"
#include "util/mutex.h"
#include "util/result.h"

namespace staccato::rdbms {

// Approach, QueryOptions, and QueryStats live in rdbms/plan.h (the query
// model shared by the planner and the session layer).

/// \brief Load-time configuration.
struct LoadOptions {
  size_t kmap_k = 25;            ///< k for the k-MAP table
  StaccatoParams staccato;       ///< (m, k) for the chunked representation
};

/// \brief One incrementally ingested document (Append). The SFA is the
/// full transducer; every derived representation (k-MAP rows, the chunked
/// Staccato graph, postings) is computed by the database with the same
/// parameters the bulk Load used, so an appended document is
/// indistinguishable from a bulk-loaded one.
struct DocumentInput {
  std::string doc_name;
  int64_t year = 0;
  std::string truth;
  Sfa sfa;
};

/// InvalidArgument unless the dataset's SFAs, lines and page numbers are
/// parallel vectors. StaccatoDb::Load and ShardedDb::Load check it before
/// they change any state.
Status CheckDataset(const OcrDataset& dataset);

/// \brief Storage-size report (Table 2 / Figure 20).
struct StorageReport {
  uint64_t kmap_table_bytes = 0;
  /// The whole blob file: FullSFA and Staccato chunk-graph blobs together.
  uint64_t blob_bytes = 0;
  uint64_t staccato_table_bytes = 0;
  uint64_t index_entries = 0;
};

/// \brief The database. Construct with Open(), then Load() a dataset;
/// query it through a Session (rdbms/session.h).
///
/// Concurrency: Append is safe against concurrent query execution (the
/// delta generation is snapshotted into every PlanContext under the ingest
/// mutex, and published documents are immutable). Load, Checkpoint, and
/// BuildInvertedIndex replace storage handles wholesale and keep the
/// external-exclusive contract: no concurrent queries while they run.
class StaccatoDb {
 public:
  /// Creates a database under `dir` (created if needed; files truncated).
  /// `cache` sizes the shared buffer cache (pages + SFA blobs) the
  /// database owns; the default honors STACCATO_CACHE_MB, and a zero
  /// budget disables caching entirely (bit-identical answers either way).
  static Result<std::unique_ptr<StaccatoDb>> Open(
      const std::string& dir,
      cache::CacheConfig cache = cache::CacheConfig::Default());

  /// Reopens a previously loaded database directory: the epoch named by
  /// `staccato.meta` (epoch 0 when absent) is opened in place, the blob
  /// ids are recovered by scanning the FullSFAData/StaccatoGraph tables,
  /// the inverted index (if it was built) is reconstructed from the
  /// persisted postings table and dictionary terms, and the write-ahead
  /// log is replayed — every committed append is recovered, a torn tail
  /// is discarded.
  static Result<std::unique_ptr<StaccatoDb>> OpenExisting(
      const std::string& dir,
      cache::CacheConfig cache = cache::CacheConfig::Default());

  /// Loads an OCR dataset: populates MasterData, GroundTruth, kMAPData,
  /// FullSFAData, StaccatoData/StaccatoGraph per `opts`. Staccato
  /// construction is parallelized across SFAs (it is embarrassingly
  /// parallel, as the paper notes). Resets the WAL and drops any pending
  /// delta: Load replaces the dataset wholesale. A dataset CheckDataset
  /// rejects leaves the database untouched.
  Status Load(const OcrDataset& dataset, const LoadOptions& opts);

  /// Appends one document incrementally, in three steps. It derives the
  /// document (k-MAP rows, chunked graph, postings) from the record WAL
  /// replay will decode, with the LoadOptions of the last Load; a document
  /// that cannot be derived fails here, before anything is logged. It
  /// then logs that record as one self-checking WAL frame, flushed or
  /// fsynced per STACCATO_WAL_SYNC; a failed write, flush or sync rolls
  /// the log back to the previous frame, so nothing is left to replay.
  /// Only then does it publish the document to the in-memory delta
  /// generation, so a crash after Append returns loses nothing and a
  /// reopen replays exactly what the live database served. Safe against
  /// concurrent query execution; folding the delta into the base is
  /// always an explicit Checkpoint.
  Status Append(const DocumentInput& doc);

  /// Folds the delta generation into a fresh epoch of base files, commits
  /// it atomically (write new files, fsync, then atomically replace
  /// `staccato.meta`), and truncates the WAL. A crash before the meta
  /// commit leaves the previous epoch + WAL authoritative; a crash after
  /// it replays no delta (WAL sequence numbers below the new base are
  /// skipped). External-exclusive: no concurrent queries.
  Status Checkpoint();

  /// Number of documents currently in the in-memory delta generation.
  size_t DeltaDocs() const;

  /// The committed base-file epoch (bumped by every Checkpoint).
  uint64_t Epoch() const;

  /// Builds the dictionary inverted index over the Staccato representation.
  Status BuildInvertedIndex(const std::vector<std::string>& dictionary_terms);

  /// Ground-truth answer set: lines whose true transcription matches.
  Result<std::set<DocId>> GroundTruthFor(const std::string& pattern);

  size_t NumSfas() const { return num_sfas_.load(std::memory_order_acquire); }
  StorageReport Storage() const;

  /// Clears the shared buffer cache, the one cache of table pages and SFA
  /// blobs, so the next query reads every sealed page and blob from the
  /// files. Plan caches are untouched — the data has not changed. Each
  /// table's unsealed tail page stays in memory: it is the table's only
  /// copy until the next flush.
  Status DropCaches();

  /// The shared memory-budgeted buffer cache (pages + SFA blobs); null
  /// when caching is disabled (zero budget).
  cache::BufferCache* buffer_cache() const { return cache_.get(); }

  /// Raw serialized-transducer blobs, exactly as the Eval stage fetches
  /// them, read past the buffer cache; Sfa::Deserialize turns one back
  /// into the transducer. Delta-aware.
  Result<std::string> ReadStaccatoBlob(DocId doc);
  Result<std::string> ReadFullSfaBlob(DocId doc);

  const DictionaryTrie* dictionary() const {
    return dict_ ? &*dict_ : nullptr;
  }

  /// Monotone data-version counter: bumped by every Load, Append,
  /// Checkpoint and BuildInvertedIndex (and set by OpenExisting).
  /// Plan-cache entries are tagged with it and retire when it moves.
  uint64_t load_generation() const {
    return load_gen_.load(std::memory_order_acquire);
  }

  /// Per-term posting statistics of the inverted index (posting count and
  /// distinct-doc count), maintained at build time for the cost-based
  /// planner. Empty when no index is built.
  const TermStatsMap& term_stats() const { return term_stats_; }

 private:
  friend class Session;
  friend class PreparedQuery;

  StaccatoDb(std::string dir, const cache::CacheConfig& cache)
      : dir_(std::move(dir)),
        cache_(cache.budget_bytes == 0
                   ? nullptr
                   : std::make_unique<cache::BufferCache>(cache.budget_bytes,
                                                          cache.shards)) {}

  /// Borrowed storage views for the planner/executor (rdbms/plan.h).
  /// Snapshots the delta generation under the ingest mutex, so a
  /// concurrent Append never mutates state a running query observes.
  PlanContext MakePlanContext();

  /// Replays the write-ahead log into the delta generation (OpenExisting)
  /// and positions the writer at the end of the committed prefix,
  /// truncating any torn tail.
  Status RecoverWal() REQUIRES(ingest_mu_);

  /// Computes every derived representation of a WAL document record:
  /// k-MAP strings, the chunked Staccato graph, and (when an index exists)
  /// packed postings. Both the live Append path and WAL replay build the
  /// delta from the *serialized* record, so a recovered document is
  /// bit-identical to the one the crashed process served.
  Result<std::shared_ptr<const DeltaDoc>> MaterializeDelta(
      const WalDocRecord& rec) REQUIRES(ingest_mu_);

  Status CheckpointLocked() REQUIRES(ingest_mu_);

  /// The delta document with id `doc`, or null when `doc` is not in the
  /// delta generation.
  std::shared_ptr<const DeltaDoc> DeltaDocOf(DocId doc) const;
  /// The serialized FullSFA (`full_sfa`) or Staccato blob of `doc`, from
  /// the delta or the base epoch.
  Result<std::string> ReadBlob(DocId doc, bool full_sfa);

  std::string dir_;
  std::atomic<size_t> num_sfas_{0};

  /// The committed base: relations, blob store and blob ids. Load
  /// truncates it in place; Checkpoint builds the next epoch and swaps it
  /// in.
  std::unique_ptr<BaseEpoch> base_;
  std::unique_ptr<cache::BufferCache> cache_;  // shared page/blob cache

  std::unique_ptr<BPlusTree> index_;  // term -> postings-table record
  std::optional<DictionaryTrie> dict_;
  TermStatsMap term_stats_;  // planner statistics, rebuilt with the index
  std::atomic<uint64_t> load_gen_{0};  // see load_generation()
  /// Blob-content version counter: bumped only when the bytes behind a
  /// (representation, doc) pair can change — i.e. by Load. Append and
  /// Checkpoint preserve every existing document's serialized SFAs
  /// byte-for-byte, so the warm blob cache survives them (BlobCacheKey
  /// carries this generation, via PlanContext, not load_generation).
  std::atomic<uint64_t> blob_gen_{0};

  /// Serializes ingest against plan-context snapshots: Append's
  /// log-then-apply sequence, the delta vector, and the base/epoch
  /// bookkeeping all live under it. Queries hold it only for the snapshot
  /// in MakePlanContext, never during execution.
  mutable util::Mutex ingest_mu_;
  std::vector<std::shared_ptr<const DeltaDoc>> delta_ GUARDED_BY(ingest_mu_);
  LoadOptions load_opts_ GUARDED_BY(ingest_mu_);  ///< params appends reuse
  std::unique_ptr<WalWriter> wal_ GUARDED_BY(ingest_mu_);
};

}  // namespace staccato::rdbms
