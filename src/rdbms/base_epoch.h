// One epoch of a StaccatoDb's base storage: the relations of Table 5 —
// MasterData, GroundTruth, kMAPData, FullSFAData, StaccatoData,
// StaccatoGraph, and the inverted index's postings and dictionary terms —
// the blob store their blob columns point into, and the DataKey -> BlobId
// arrays that point fetches use. This module alone names the epoch's files
// and schemas.
//
// Checkpoint never rewrites a live epoch in place (a crash mid-fold would
// leave, e.g., duplicated kMAPData rows that double match probabilities):
// it writes epoch N+1 beside epoch N, commits it through the
// `staccato.meta` pointer file, and only then retires N. Epoch 0 keeps
// unsuffixed names (`master.tbl`, `blobs.dat`) so pre-WAL directories
// reopen unchanged; epoch N > 0 uses `master.N.tbl` and `blobs.N.dat`.
//
// Every document enters an epoch through AppendDocument — whether Load
// derived it, Checkpoint carries it over from the previous epoch, or it
// comes from the delta generation — so an epoch's files depend only on
// its documents, in DataKey order.
//
// Concurrency: the read paths (accessors, BlobIdOf, ReadBlob) follow
// HeapTable's and BlobStore's contracts and are safe from any thread.
// Every writer (AppendDocument, AppendPostings, ResetIndex,
// WriteDictionary) requires external exclusion.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/buffer_cache.h"
#include "rdbms/blob_store.h"
#include "rdbms/delta.h"
#include "rdbms/heap_table.h"
#include "util/result.h"

namespace staccato::rdbms {

/// Document `key`'s MasterData row (DataKey, DocName, Year, SFANum): what
/// AppendDocument writes, and what the Filter operator tests a delta
/// document's equalities against before a checkpoint writes it.
Tuple MasterDataRow(int64_t key, const DeltaDoc& doc);

class BaseEpoch {
 public:
  /// Creates (truncates) the files of `epoch` under `dir`. Relations and
  /// blobs are read through `cache` when it is not null.
  static Result<std::unique_ptr<BaseEpoch>> Create(const std::string& dir,
                                                   uint64_t epoch,
                                                   cache::BufferCache* cache);
  /// Opens the files of `epoch` under `dir` and recovers the DataKey ->
  /// BlobId arrays from the FullSFAData and StaccatoGraph rows.
  static Result<std::unique_ptr<BaseEpoch>> Open(const std::string& dir,
                                                 uint64_t epoch,
                                                 cache::BufferCache* cache);

  uint64_t epoch() const { return epoch_; }

  /// Documents held; the next AppendDocument writes this DataKey.
  size_t NumDocuments() const { return fullsfa_blob_.size(); }

  /// Writes document NumDocuments(): its MasterData and GroundTruth rows,
  /// its kMAPData rows, its FullSFA blob and FullSFAData row, its
  /// StaccatoData rows (one per chunk edge and retained string, read off
  /// `doc.graph_blob`), its StaccatoGraph blob and row, then its postings
  /// rows.
  Status AppendDocument(const DeltaDoc& doc);

  /// Reads every document back in DataKey order, as AppendDocument was
  /// handed it, and passes each to `fn`, stopping at the first error. One
  /// document is in memory at a time.
  Status ForEachDocument(const std::function<Status(const DeltaDoc&)>& fn);

  /// Writes document `key`'s postings rows, term by term (an index build
  /// writes the base documents' postings after their other rows).
  Status AppendPostings(int64_t key, const PackedPostings& postings);
  /// Truncates the postings and dictionary relations: an index build
  /// replaces both.
  Status ResetIndex();

  /// Writes the inverted index's dictionary terms to the dictionary
  /// relation and syncs it.
  Status WriteDictionary(const std::vector<std::string>& terms);
  /// The terms WriteDictionary wrote; none when no index was built, or
  /// when an older build wrote the directory.
  Result<std::vector<std::string>> ReadDictionary() const;

  /// The id of document `doc`'s FullSFA (`full_sfa`) or StaccatoGraph
  /// blob, from memory.
  Result<BlobId> BlobIdOf(uint64_t doc, bool full_sfa) const;
  /// Reads that blob from disk.
  Result<std::string> ReadBlob(uint64_t doc, bool full_sfa) const;

  /// Pushes every relation's dirty pages and the blob store's buffered
  /// writes to the files.
  Status Flush();
  /// Flush + fsync: the durability barrier before a meta commit names
  /// this epoch.
  Status Sync();

  /// Retires this epoch: drops its relations' pages from the shared cache
  /// and deletes its files. The handles stay open until destruction.
  void Remove();

  HeapTable* master() const { return rel_[kMaster].get(); }
  HeapTable* truth() const { return rel_[kTruth].get(); }
  HeapTable* kmap() const { return rel_[kKMap].get(); }
  HeapTable* staccato() const { return rel_[kStaccato].get(); }
  HeapTable* postings() const { return rel_[kPostings].get(); }
  BlobStore* blobs() const { return blobs_.get(); }

 private:
  /// The relations, in the order of their files.
  enum Relation {
    kMaster,     // MasterData
    kTruth,      // GroundTruth
    kKMap,       // kMAPData
    kFullSfa,    // FullSFAData
    kStaccato,   // StaccatoData
    kGraph,      // StaccatoGraph
    kPostings,   // inverted-index postings
    kDictionary, // inverted-index dictionary terms
    kNumRelations
  };
  struct RelationSpec {
    const char* file;  ///< base name: <file>.tbl, or <file>.<N>.tbl
    Schema (*schema)();
  };
  static const RelationSpec kRelations[kNumRelations];

  BaseEpoch(std::string dir, uint64_t epoch, cache::BufferCache* cache)
      : dir_(std::move(dir)), epoch_(epoch), cache_(cache) {}

  /// Creates (`create`) or opens every file of the epoch.
  static Result<std::unique_ptr<BaseEpoch>> Make(const std::string& dir,
                                                 uint64_t epoch,
                                                 cache::BufferCache* cache,
                                                 bool create);
  std::string RelationFile(Relation r) const;

  std::string dir_;
  uint64_t epoch_;
  cache::BufferCache* const cache_;  ///< borrowed; may be null
  std::unique_ptr<HeapTable> rel_[kNumRelations];
  std::unique_ptr<BlobStore> blobs_;
  /// DataKey -> BlobId of the document's FullSFA and StaccatoGraph blobs,
  /// for point fetches.
  std::vector<BlobId> fullsfa_blob_;
  std::vector<BlobId> graph_blob_;
};

}  // namespace staccato::rdbms
