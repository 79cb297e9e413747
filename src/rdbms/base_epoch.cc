#include "rdbms/base_epoch.h"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "rdbms/kmap_row.h"
#include "sfa/sfa.h"

namespace staccato::rdbms {

namespace {

Schema MasterSchema() {
  return Schema({{"DataKey", ValueType::kInt},
                 {"DocName", ValueType::kString},
                 {"Year", ValueType::kInt},
                 {"SFANum", ValueType::kInt}});
}
Schema TruthSchema() {
  return Schema({{"DataKey", ValueType::kInt}, {"Data", ValueType::kString}});
}
Schema FullSfaSchema() {
  return Schema({{"DataKey", ValueType::kInt}, {"SFABlob", ValueType::kBlobId}});
}
Schema StaccatoDataSchema() {
  return Schema({{"DataKey", ValueType::kInt},
                 {"ChunkNum", ValueType::kInt},
                 {"LineNum", ValueType::kInt},
                 {"Data", ValueType::kString},
                 {"LogProb", ValueType::kDouble}});
}
Schema StaccatoGraphSchema() {
  return Schema({{"DataKey", ValueType::kInt}, {"GraphBlob", ValueType::kBlobId}});
}
Schema PostingsSchema() {
  return Schema({{"Term", ValueType::kString},
                 {"DataKey", ValueType::kInt},
                 {"Posting", ValueType::kInt}});
}
Schema DictionarySchema() { return Schema({{"Term", ValueType::kString}}); }

/// Reads the rows of document `key` from `table`, whose rows are grouped
/// by the DataKey in column `key_column`, ascending. Starts at `*at` and
/// leaves it at the next document's first row.
Status ReadDocumentRows(HeapTable* table, size_t key_column, int64_t key,
                        RecordId* at,
                        const std::function<void(const Tuple&)>& on_row) {
  Status st;
  STACCATO_RETURN_NOT_OK(table->Scan([&](RecordId rid, const Tuple& t) {
    const int64_t row_key = t[key_column].AsInt();
    if (row_key < key) st = Status::Corruption("rows out of DataKey order");
    if (row_key != key) return false;
    on_row(t);
    *at = RecordId{rid.page, static_cast<uint16_t>(rid.slot + 1)};
    return true;
  }, *at));
  return st;
}

std::string EpochFile(const std::string& dir, const char* base,
                      uint64_t epoch, const char* ext) {
  if (epoch == 0) return dir + "/" + base + ext;
  return dir + "/" + base + "." + std::to_string(epoch) + ext;
}

}  // namespace

Tuple MasterDataRow(int64_t key, const DeltaDoc& doc) {
  return {Value::Int(key), Value::String(doc.doc_name), Value::Int(doc.year),
          Value::Int(key)};
}

const BaseEpoch::RelationSpec BaseEpoch::kRelations[kNumRelations] = {
    {"master", MasterSchema},         {"truth", TruthSchema},
    {"kmap", KMapSchema},             {"fullsfa", FullSfaSchema},
    {"staccato", StaccatoDataSchema}, {"staccato_graph", StaccatoGraphSchema},
    {"postings", PostingsSchema},     {"dictionary", DictionarySchema}};

std::string BaseEpoch::RelationFile(Relation r) const {
  return EpochFile(dir_, kRelations[r].file, epoch_, ".tbl");
}

Result<std::unique_ptr<BaseEpoch>> BaseEpoch::Create(
    const std::string& dir, uint64_t epoch, cache::BufferCache* cache) {
  return Make(dir, epoch, cache, /*create=*/true);
}

Result<std::unique_ptr<BaseEpoch>> BaseEpoch::Open(const std::string& dir,
                                                   uint64_t epoch,
                                                   cache::BufferCache* cache) {
  STACCATO_ASSIGN_OR_RETURN(std::unique_ptr<BaseEpoch> e,
                            Make(dir, epoch, cache, /*create=*/false));
  // Recover the DataKey -> BlobId arrays from the rows themselves.
  const size_t n = e->rel_[kFullSfa]->NumTuples();
  for (Relation r : {kFullSfa, kGraph}) {
    std::vector<BlobId>& ids =
        r == kFullSfa ? e->fullsfa_blob_ : e->graph_blob_;
    ids.resize(n);
    STACCATO_RETURN_NOT_OK(e->rel_[r]->Scan([&](RecordId, const Tuple& t) {
      const size_t key = static_cast<size_t>(t[0].AsInt());
      if (key < n) ids[key] = t[1].AsBlobId();
      return true;
    }));
  }
  return e;
}

Result<std::unique_ptr<BaseEpoch>> BaseEpoch::Make(const std::string& dir,
                                                   uint64_t epoch,
                                                   cache::BufferCache* cache,
                                                   bool create) {
  auto e = std::unique_ptr<BaseEpoch>(new BaseEpoch(dir, epoch, cache));
  for (int r = 0; r < kNumRelations; ++r) {
    const std::string path = e->RelationFile(static_cast<Relation>(r));
    // A directory written before the dictionary relation existed has no
    // file for it: it starts empty, and OpenExisting falls back to the
    // terms that have postings.
    std::error_code ec;
    const bool make = create || (r == kDictionary &&
                                 !std::filesystem::exists(path, ec));
    STACCATO_ASSIGN_OR_RETURN(
        e->rel_[r],
        make ? HeapTable::Create(path, kRelations[r].schema(), cache)
             : HeapTable::Open(path, kRelations[r].schema(), cache));
  }
  const std::string blobs = EpochFile(dir, "blobs", epoch, ".dat");
  STACCATO_ASSIGN_OR_RETURN(e->blobs_, create
                                           ? BlobStore::Create(blobs, cache)
                                           : BlobStore::Open(blobs, cache));
  return e;
}

Status BaseEpoch::AppendDocument(const DeltaDoc& doc) {
  const int64_t key = static_cast<int64_t>(NumDocuments());
  STACCATO_RETURN_NOT_OK(master()->Insert(MasterDataRow(key, doc)).status());
  STACCATO_RETURN_NOT_OK(
      truth()->Insert({Value::Int(key), Value::String(doc.truth)}).status());
  // k-MAP rows (rank 0 is the MAP transcription).
  for (size_t r = 0; r < doc.kmap.size(); ++r) {
    STACCATO_RETURN_NOT_OK(
        kmap()
            ->Insert(KMapTuple(key, static_cast<int64_t>(r), doc.kmap[r].str,
                               doc.kmap[r].log_prob))
            .status());
  }
  STACCATO_ASSIGN_OR_RETURN(BlobId full_id, blobs_->Put(doc.full_blob));
  STACCATO_RETURN_NOT_OK(
      rel_[kFullSfa]->Insert({Value::Int(key), Value::Blob(full_id)}).status());
  // Staccato rows: one per (chunk, retained string), in the blob's edge
  // and transition order, then the graph blob itself.
  SfaViewArena arena;
  SfaView chunked;
  STACCATO_RETURN_NOT_OK(chunked.Decode(doc.graph_blob, &arena));
  for (EdgeId e = 0; e < chunked.NumEdges(); ++e) {
    const ViewEdge& edge = chunked.edge(e);
    for (uint32_t r = 0; r < edge.num_transitions; ++r) {
      const ViewTransition t = chunked.transition(edge.first_transition + r);
      STACCATO_RETURN_NOT_OK(
          staccato()
              ->Insert({Value::Int(key), Value::Int(static_cast<int64_t>(e)),
                        Value::Int(static_cast<int64_t>(r)),
                        Value::String(std::string(t.label)),
                        Value::Double(std::log(t.prob))})
              .status());
    }
  }
  STACCATO_ASSIGN_OR_RETURN(BlobId graph_id, blobs_->Put(doc.graph_blob));
  STACCATO_RETURN_NOT_OK(
      rel_[kGraph]->Insert({Value::Int(key), Value::Blob(graph_id)}).status());
  STACCATO_RETURN_NOT_OK(AppendPostings(key, doc.postings));
  fullsfa_blob_.push_back(full_id);
  graph_blob_.push_back(graph_id);
  return Status::OK();
}

Status BaseEpoch::ForEachDocument(
    const std::function<Status(const DeltaDoc&)>& fn) {
  // Each relation resumes where it stopped for the previous document, so
  // every row is read once and `fn` runs outside any scan.
  RecordId master_at, truth_at, kmap_at, postings_at;
  for (size_t i = 0; i < NumDocuments(); ++i) {
    const int64_t key = static_cast<int64_t>(i);
    DeltaDoc d;
    STACCATO_RETURN_NOT_OK(ReadDocumentRows(
        master(), 0, key, &master_at, [&](const Tuple& t) {
          d.doc_name = t[1].AsString();
          d.year = t[2].AsInt();
        }));
    STACCATO_RETURN_NOT_OK(ReadDocumentRows(
        truth(), 0, key, &truth_at,
        [&](const Tuple& t) { d.truth = t[1].AsString(); }));
    STACCATO_RETURN_NOT_OK(
        ReadDocumentRows(kmap(), 0, key, &kmap_at, [&](const Tuple& t) {
          d.kmap.push_back({t[2].AsString(), t[3].AsDouble()});
        }));
    STACCATO_RETURN_NOT_OK(ReadDocumentRows(
        postings(), 1, key, &postings_at, [&](const Tuple& t) {
          d.postings[t[0].AsString()].push_back(
              static_cast<uint64_t>(t[2].AsInt()));
        }));
    STACCATO_ASSIGN_OR_RETURN(d.full_blob, ReadBlob(i, /*full_sfa=*/true));
    STACCATO_ASSIGN_OR_RETURN(d.graph_blob, ReadBlob(i, /*full_sfa=*/false));
    STACCATO_RETURN_NOT_OK(fn(d));
  }
  return Status::OK();
}

Status BaseEpoch::AppendPostings(int64_t key, const PackedPostings& postings) {
  for (const auto& [term, packed] : postings) {
    for (uint64_t p : packed) {
      STACCATO_RETURN_NOT_OK(
          rel_[kPostings]
              ->Insert({Value::String(term), Value::Int(key),
                        Value::Int(static_cast<int64_t>(p))})
              .status());
    }
  }
  return Status::OK();
}

Status BaseEpoch::ResetIndex() {
  for (Relation r : {kPostings, kDictionary}) {
    // Flush the old handle first so it holds no dirty pages: it is
    // destroyed only after Create has truncated the file, and a late
    // destructor flush must not write stale pages into it. On failure the
    // old handle stays in place, so the relation is never left null.
    STACCATO_RETURN_NOT_OK(rel_[r]->Flush());
    STACCATO_ASSIGN_OR_RETURN(
        rel_[r], HeapTable::Create(RelationFile(r), kRelations[r].schema(),
                                   cache_));
  }
  return Status::OK();
}

Status BaseEpoch::WriteDictionary(const std::vector<std::string>& terms) {
  for (const std::string& term : terms) {
    STACCATO_RETURN_NOT_OK(
        rel_[kDictionary]->Insert({Value::String(term)}).status());
  }
  return rel_[kDictionary]->Sync();
}

Result<std::vector<std::string>> BaseEpoch::ReadDictionary() const {
  std::vector<std::string> terms;
  STACCATO_RETURN_NOT_OK(rel_[kDictionary]->Scan([&](RecordId, const Tuple& t) {
    terms.push_back(t[0].AsString());
    return true;
  }));
  return terms;
}

Result<BlobId> BaseEpoch::BlobIdOf(uint64_t doc, bool full_sfa) const {
  const std::vector<BlobId>& ids = full_sfa ? fullsfa_blob_ : graph_blob_;
  if (doc >= ids.size()) return Status::NotFound("no such DataKey");
  return ids[doc];
}

Result<std::string> BaseEpoch::ReadBlob(uint64_t doc, bool full_sfa) const {
  STACCATO_ASSIGN_OR_RETURN(BlobId id, BlobIdOf(doc, full_sfa));
  return blobs_->Get(id);
}

Status BaseEpoch::Flush() {
  for (const auto& rel : rel_) STACCATO_RETURN_NOT_OK(rel->Flush());
  return blobs_->Flush();
}

Status BaseEpoch::Sync() {
  for (const auto& rel : rel_) STACCATO_RETURN_NOT_OK(rel->Sync());
  return blobs_->Sync();
}

void BaseEpoch::Remove() {
  for (int r = 0; r < kNumRelations; ++r) {
    if (cache_ != nullptr) cache_->EraseSpace(rel_[r]->cache_space());
    std::remove(RelationFile(static_cast<Relation>(r)).c_str());
  }
  std::remove(EpochFile(dir_, "blobs", epoch_, ".dat").c_str());
}

}  // namespace staccato::rdbms
