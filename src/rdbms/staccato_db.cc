#include "rdbms/staccato_db.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_map>
#include <utility>

#include "automata/dfa.h"
#include "indexing/index_builder.h"
#include "inference/kbest.h"
#include "telemetry/clock.h"
#include "telemetry/metrics_registry.h"
#include "util/crc32.h"
#include "util/fault_fs.h"
#include "util/parallel.h"
#include "util/serde.h"
#include "util/strings.h"

namespace staccato::rdbms {

namespace {

// Documents carry a synthetic publication year (Table 5's enclosing
// relational context, e.g. Claims.Year in the paper's running example):
// page p of a corpus is dated kBaseYear + p.
constexpr int64_t kBaseYear = 2010;

std::string MetaPath(const std::string& dir) { return dir + "/staccato.meta"; }

// ---- The epoch pointer file -------------------------------------------------
//
// magic[8] + epoch[u64] + kmap_k[u64] + staccato_m[u64] + staccato_k[u64]
// + crc32[u32]. The load parameters ride along so a reopened database
// appends with the same derivation knobs the original Load used — a
// mismatch would make appended documents diverge from bulk-loaded ones.
//
// The magic's last byte versions the directory's SFA blobs: STACMET2
// directories hold SFA2 blobs (docs/ARCHITECTURE.md, "SFA blob format"),
// and a STACMET1 directory was written with the retired SFA1 format.

constexpr char kMetaMagic[8] = {'S', 'T', 'A', 'C', 'M', 'E', 'T', '2'};
constexpr char kRetiredMetaMagic[8] = {'S', 'T', 'A', 'C', 'M', 'E', 'T', '1'};
constexpr size_t kMetaPayload = sizeof(kMetaMagic) + 4 * sizeof(uint64_t);
constexpr size_t kMetaSize = kMetaPayload + sizeof(uint32_t);

struct DbMeta {
  uint64_t epoch = 0;
  LoadOptions opts;  // absent meta = the default load knobs
};

Status WriteMetaAtomic(const std::string& dir, uint64_t epoch,
                       const LoadOptions& opts) {
  BinaryWriter w;
  w.PutRaw(kMetaMagic, sizeof(kMetaMagic));
  w.PutU64(epoch);
  w.PutU64(opts.kmap_k);
  w.PutU64(opts.staccato.m);
  w.PutU64(opts.staccato.k);
  w.PutU32(util::Crc32(w.buffer()));
  // The directory sync makes the rename durable: without it a power loss
  // could keep Checkpoint's later WAL truncate but lose the rename,
  // dropping committed appends.
  return util::WriteFileAtomic(dir, MetaPath(dir), w.buffer());
}

Result<DbMeta> ReadMeta(const std::string& dir) {
  Result<std::string> read = util::ReadFile(MetaPath(dir));
  if (read.status().IsNotFound()) return DbMeta{};  // never checkpointed
  STACCATO_RETURN_NOT_OK(read.status());
  const std::string& data = *read;
  if (data.compare(0, sizeof(kRetiredMetaMagic), kRetiredMetaMagic,
                   sizeof(kRetiredMetaMagic)) == 0) {
    return Status::Corruption(
        dir + " holds SFA blobs in the retired SFA1 format; reload the "
        "database from its source documents");
  }
  if (data.size() != kMetaSize ||
      std::memcmp(data.data(), kMetaMagic, sizeof(kMetaMagic)) != 0) {
    return Status::Corruption("bad meta file " + MetaPath(dir));
  }
  BinaryReader r(data.data() + sizeof(kMetaMagic),
                       data.size() - sizeof(kMetaMagic));
  DbMeta meta;
  STACCATO_ASSIGN_OR_RETURN(meta.epoch, r.GetU64());
  STACCATO_ASSIGN_OR_RETURN(meta.opts.kmap_k, r.GetU64());
  STACCATO_ASSIGN_OR_RETURN(meta.opts.staccato.m, r.GetU64());
  STACCATO_ASSIGN_OR_RETURN(meta.opts.staccato.k, r.GetU64());
  STACCATO_ASSIGN_OR_RETURN(uint32_t crc, r.GetU32());
  if (crc != util::Crc32(data.data(), kMetaPayload)) {
    return Status::Corruption("meta checksum mismatch " + MetaPath(dir));
  }
  return meta;
}

/// A document's kMAPData rows: its k most likely strings, rank 0 (the MAP
/// transcription) first.
std::vector<DeltaKMapRow> KMapRows(const Sfa& sfa, size_t k) {
  std::vector<DeltaKMapRow> rows;
  for (ScoredString& s : KBestStrings(sfa, k)) {
    rows.push_back({std::move(s.str), std::log(s.prob)});
  }
  return rows;
}

/// One document's postings, packed as DeltaDoc and the postings relation
/// hold them.
Result<PackedPostings> DocPostings(const Sfa& chunked,
                                   const DictionaryTrie& dict) {
  STACCATO_ASSIGN_OR_RETURN(PostingMap pm, BuildPostings(chunked, dict));
  PackedPostings packed;
  for (const auto& [tid, vec] : pm) {
    std::vector<uint64_t>& dst = packed[dict.term(tid)];
    dst.reserve(vec.size());
    for (const Posting& p : vec) dst.push_back(PackPosting(p));
  }
  return packed;
}

/// Rebuilds the in-memory B+-tree and the planner's per-term statistics
/// from a postings relation. Its rows are grouped by document in DataKey
/// order, so a term's documents appear in nondecreasing order and distinct
/// docs can be counted with a last-seen map.
Status IndexPostings(HeapTable* postings, BPlusTree* index,
                     TermStatsMap* stats) {
  std::unordered_map<std::string, int64_t> last_doc;
  return postings->Scan([&](RecordId rid, const Tuple& t) {
    const std::string& term = t[0].AsString();
    index->Insert(term, PackRecordId(rid));
    TermStats& st = (*stats)[term];
    ++st.postings;
    auto [it, fresh] = last_doc.emplace(term, t[1].AsInt());
    if (fresh || it->second != t[1].AsInt()) {
      it->second = t[1].AsInt();
      ++st.docs;
    }
    return true;
  });
}

}  // namespace

Result<std::unique_ptr<StaccatoDb>> StaccatoDb::Open(const std::string& dir,
                                                     cache::CacheConfig cache) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory " + dir);
  auto db = std::unique_ptr<StaccatoDb>(new StaccatoDb(dir, cache));
  STACCATO_ASSIGN_OR_RETURN(db->base_,
                            BaseEpoch::Create(dir, 0, db->cache_.get()));
  // A fresh database owns the directory outright: drop any stale epoch
  // pointer and truncate the log a previous database may have left here.
  std::remove(MetaPath(dir).c_str());
  util::MutexLock lock(&db->ingest_mu_);
  STACCATO_ASSIGN_OR_RETURN(
      db->wal_, WalWriter::Open(WalPath(dir), 0, WalSyncPolicyFromEnv()));
  return db;
}

Result<std::unique_ptr<StaccatoDb>> StaccatoDb::OpenExisting(
    const std::string& dir, cache::CacheConfig cache) {
  auto db = std::unique_ptr<StaccatoDb>(new StaccatoDb(dir, cache));
  // The meta pointer names the committed epoch (0 when absent) and
  // carries the load parameters appends must reuse.
  STACCATO_ASSIGN_OR_RETURN(DbMeta meta, ReadMeta(dir));
  STACCATO_ASSIGN_OR_RETURN(
      db->base_, BaseEpoch::Open(dir, meta.epoch, db->cache_.get()));
  db->num_sfas_.store(db->base_->NumDocuments(), std::memory_order_release);

  // Rebuild the in-memory B+-tree and the planner's per-term statistics
  // from the persisted postings relation, and the dictionary trie from the
  // persisted terms, if an index had been built. A directory whose
  // dictionary relation is empty falls back to the terms that have
  // postings.
  STACCATO_ASSIGN_OR_RETURN(std::vector<std::string> terms,
                            db->base_->ReadDictionary());
  if (!terms.empty() || db->base_->postings()->NumTuples() > 0) {
    db->index_ = std::make_unique<BPlusTree>();
    STACCATO_RETURN_NOT_OK(IndexPostings(db->base_->postings(),
                                         db->index_.get(), &db->term_stats_));
    if (terms.empty()) {
      for (const auto& [term, st] : db->term_stats_) terms.push_back(term);
    }
    STACCATO_ASSIGN_OR_RETURN(DictionaryTrie trie,
                              DictionaryTrie::Build(terms));
    db->dict_.emplace(std::move(trie));
  }

  {
    util::MutexLock lock(&db->ingest_mu_);
    db->load_opts_ = meta.opts;
    // Replay the committed WAL suffix into the delta generation; a torn
    // tail is truncated so fresh appends land on a record boundary.
    STACCATO_RETURN_NOT_OK(db->RecoverWal());
  }
  db->load_gen_.store(1, std::memory_order_release);
  db->blob_gen_.store(1, std::memory_order_release);
  return db;
}

Status StaccatoDb::RecoverWal() {
  const std::string path = WalPath(dir_);
  uint64_t resume = 0;
  auto reader_or = WalReader::Open(path);
  if (reader_or.ok()) {
    WalReader& reader = **reader_or;
    std::string_view frame;
    while (reader.ReadRecord(&frame)) {
      auto rec = DecodeWalDoc(frame);
      if (!rec.ok()) break;  // committed-prefix semantics: stop here
      const uint64_t next = base_->NumDocuments() + delta_.size();
      if (rec->seq < next) {
        // Already folded into the base by a checkpoint that committed its
        // meta pointer but crashed before truncating the log.
        resume = reader.last_record_end();
        continue;
      }
      if (rec->seq != next) break;  // gap: nothing past it can apply
      STACCATO_ASSIGN_OR_RETURN(std::shared_ptr<const DeltaDoc> d,
                                MaterializeDelta(*rec));
      delta_.push_back(std::move(d));
      num_sfas_.fetch_add(1, std::memory_order_release);
      resume = reader.last_record_end();
    }
  } else if (!reader_or.status().IsNotFound()) {
    return reader_or.status();
  }
  // Position the writer just past the applied prefix: a torn tail is
  // truncated away.
  STACCATO_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(path, resume, WalSyncPolicyFromEnv()));
  return Status::OK();
}

Result<std::shared_ptr<const DeltaDoc>> StaccatoDb::MaterializeDelta(
    const WalDocRecord& rec) {
  auto d = std::make_shared<DeltaDoc>();
  d->doc_name = rec.doc_name;
  d->year = rec.year;
  d->truth = rec.truth;
  d->full_blob = rec.full_sfa;
  STACCATO_ASSIGN_OR_RETURN(Sfa sfa, Sfa::Deserialize(rec.full_sfa));
  d->kmap = KMapRows(sfa, rec.kmap_k);
  StaccatoParams params = load_opts_.staccato;
  params.m = rec.staccato_m;
  params.k = rec.staccato_k;
  STACCATO_ASSIGN_OR_RETURN(Sfa chunked, ApproximateSfa(sfa, params));
  d->graph_blob = chunked.Serialize();
  if (dict_) {
    STACCATO_ASSIGN_OR_RETURN(d->postings, DocPostings(chunked, *dict_));
  }
  return std::shared_ptr<const DeltaDoc>(std::move(d));
}

Status StaccatoDb::Append(const DocumentInput& doc) {
  util::MutexLock lock(&ingest_mu_);
  if (wal_ == nullptr) return Status::Internal("database has no write-ahead log");
  WalDocRecord rec;
  rec.seq = base_->NumDocuments() + delta_.size();
  rec.doc_name = doc.doc_name;
  rec.year = doc.year;
  rec.truth = doc.truth;
  rec.kmap_k = load_opts_.kmap_k;
  rec.staccato_m = load_opts_.staccato.m;
  rec.staccato_k = load_opts_.staccato.k;
  rec.full_sfa = doc.sfa.Serialize();
  // Derive first, from the record replay will decode: a document that
  // cannot be derived never reaches the log, and a recovered document is
  // bit-identical to the one this process serves.
  STACCATO_ASSIGN_OR_RETURN(std::shared_ptr<const DeltaDoc> d,
                            MaterializeDelta(rec));
  struct WalMetrics {
    telemetry::Counter* commits;
    telemetry::Histogram* commit_us;
  };
  static const WalMetrics wal_metrics = [] {
    auto& r = telemetry::MetricsRegistry::Global();
    return WalMetrics{r.GetCounter("staccato_wal_commits_total"),
                      r.GetHistogram("staccato_wal_commit_us")};
  }();
  // The interval spans the frame's write through its fsync, i.e. the full
  // durability cost of one ingest — the figure an fsync-bound ingest
  // pipeline needs to see.
  const uint64_t commit_start_ns = telemetry::MonotonicNanos();
  // The frame is the commit: the document exists exactly when its frame
  // is on disk (per the sync policy). A failed append leaves no frame.
  STACCATO_RETURN_NOT_OK(wal_->Append(EncodeWalDoc(rec)));
  wal_metrics.commits->Increment();
  wal_metrics.commit_us->Record(
      (telemetry::MonotonicNanos() - commit_start_ns) / 1000);
  delta_.push_back(std::move(d));
  num_sfas_.fetch_add(1, std::memory_order_release);
  load_gen_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status StaccatoDb::Checkpoint() {
  util::MutexLock lock(&ingest_mu_);
  return CheckpointLocked();
}

Status StaccatoDb::CheckpointLocked() {
  // Nothing to fold: the log's contents are already in the base.
  if (delta_.empty()) return wal_->Reset();

  STACCATO_ASSIGN_OR_RETURN(
      std::unique_ptr<BaseEpoch> next,
      BaseEpoch::Create(dir_, base_->epoch() + 1, cache_.get()));
  // Every document goes through AppendDocument: the base ones as the live
  // epoch reads them back, then the delta, from the exact in-memory state
  // queries were already serving. Blob ids are offsets in the epoch's blob
  // file, so rows are rewritten, not copied; the blob bytes are unchanged,
  // which keeps the warm blob cache valid across the fold (BlobCacheKey
  // carries blob_generation, untouched here).
  STACCATO_RETURN_NOT_OK(base_->ForEachDocument(
      [&](const DeltaDoc& d) { return next->AppendDocument(d); }));
  for (const auto& d : delta_) {
    STACCATO_RETURN_NOT_OK(next->AppendDocument(*d));
  }

  // The postings went along with their documents; the dictionary trie is
  // reused unchanged, so anchor resolution is untouched by a checkpoint.
  std::unique_ptr<BPlusTree> nindex;
  TermStatsMap nstats;
  if (dict_) {
    nindex = std::make_unique<BPlusTree>();
    STACCATO_RETURN_NOT_OK(
        IndexPostings(next->postings(), nindex.get(), &nstats));
    STACCATO_RETURN_NOT_OK(next->WriteDictionary(dict_->terms()));
  }

  // Durability barrier: everything the new epoch references must be on
  // disk before the meta pointer names it.
  STACCATO_RETURN_NOT_OK(next->Sync());
  // The commit point: after this rename, recovery opens the new epoch and
  // skips every WAL record below the new base (absolute sequence numbers
  // make the replay idempotent until the log is truncated below).
  STACCATO_RETURN_NOT_OK(WriteMetaAtomic(dir_, next->epoch(), load_opts_));

  std::unique_ptr<BaseEpoch> retired = std::exchange(base_, std::move(next));
  if (dict_) {
    index_ = std::move(nindex);
    term_stats_ = std::move(nstats);
  }
  delta_.clear();
  // Record ids and table handles changed: frozen plans must re-resolve
  // (load_gen_ bump). Blob *bytes* per document did not — blob_gen_ stays
  // put, keeping the warm blob cache valid.
  load_gen_.fetch_add(1, std::memory_order_acq_rel);
  STACCATO_RETURN_NOT_OK(wal_->Reset());
  retired->Remove();
  return Status::OK();
}

size_t StaccatoDb::DeltaDocs() const {
  util::MutexLock lock(&ingest_mu_);
  return delta_.size();
}

uint64_t StaccatoDb::Epoch() const {
  util::MutexLock lock(&ingest_mu_);
  return base_->epoch();
}

Status CheckDataset(const OcrDataset& dataset) {
  const size_t lines = dataset.corpus.lines.size();
  if (dataset.sfas.size() != lines ||
      dataset.corpus.page_of_line.size() != lines) {
    return Status::InvalidArgument(StringPrintf(
        "dataset vectors disagree: %zu sfas, %zu lines, %zu page numbers",
        dataset.sfas.size(), lines, dataset.corpus.page_of_line.size()));
  }
  return Status::OK();
}

Status StaccatoDb::Load(const OcrDataset& dataset, const LoadOptions& opts) {
  STACCATO_RETURN_NOT_OK(CheckDataset(dataset));
  util::MutexLock lock(&ingest_mu_);
  const size_t n = dataset.sfas.size();
  num_sfas_.store(n, std::memory_order_release);
  load_gen_.fetch_add(1, std::memory_order_acq_rel);  // plan caches invalidate
  blob_gen_.fetch_add(1, std::memory_order_acq_rel);  // blob bytes replaced
  // Load replaces the dataset wholesale: drop the delta generation and
  // truncate the WAL first — stale appends must never replay on top of
  // the new corpus — then truncate every relation and the blob store so a
  // reload never leaves rows from the previous corpus behind (duplicate
  // kMAPData rows would double match probabilities, and OpenExisting
  // would recover an inflated cardinality).
  delta_.clear();
  load_opts_ = opts;
  STACCATO_RETURN_NOT_OK(wal_->Reset());
  // Flush the old handles first so they hold no dirty pages: they are
  // destroyed only after Create has truncated their files, and a late
  // destructor flush must not write stale pages into them.
  STACCATO_RETURN_NOT_OK(base_->Flush());
  STACCATO_ASSIGN_OR_RETURN(
      base_, BaseEpoch::Create(dir_, base_->epoch(), cache_.get()));
  // The generation bumps above already make every cached blob key stale
  // and the fresh table instances carry fresh page namespaces; clearing
  // just releases the dead entries' budget immediately.
  if (cache_ != nullptr) cache_->Clear();
  // Index artifacts describe the old corpus: drop them (the postings
  // relation was truncated with the rest) rather than let cost-based
  // planning silently probe stale postings. Callers rebuild with
  // BuildInvertedIndex; frozen index-probe plans fail cleanly until then.
  index_.reset();
  dict_.reset();
  term_stats_.clear();

  // Deriving a document — its k-MAP rows and its Staccato chunking — is
  // the expensive part; parallelize it across SFAs on the shared pool and
  // keep the writes serial, in DataKey order.
  STACCATO_ASSIGN_OR_RETURN(
      std::vector<DeltaDoc> docs,
      ParallelMap<DeltaDoc>(n, /*grain=*/1, [&](size_t i) -> Result<DeltaDoc> {
        DeltaDoc doc;
        doc.kmap = KMapRows(dataset.sfas[i], opts.kmap_k);
        STACCATO_ASSIGN_OR_RETURN(
            Sfa chunked, ApproximateSfa(dataset.sfas[i], opts.staccato));
        doc.graph_blob = chunked.Serialize();
        return doc;
      }));

  for (size_t i = 0; i < n; ++i) {
    DeltaDoc doc = std::move(docs[i]);  // freed once written
    const uint32_t page = dataset.corpus.page_of_line[i];
    doc.doc_name =
        StringPrintf("%s-page-%u", dataset.corpus.name.c_str(), page);
    doc.year = kBaseYear + page;
    doc.truth = dataset.corpus.lines[i];
    doc.full_blob = dataset.sfas[i].Serialize();
    STACCATO_RETURN_NOT_OK(base_->AppendDocument(doc));
  }
  STACCATO_RETURN_NOT_OK(base_->Flush());
  // Persist the load parameters: a reopened database must append with the
  // same derivation knobs or its delta would diverge from the base.
  return WriteMetaAtomic(dir_, base_->epoch(), opts);
}

Status StaccatoDb::BuildInvertedIndex(
    const std::vector<std::string>& dictionary_terms) {
  util::MutexLock lock(&ingest_mu_);
  // candidate sets derived from the old index are invalid
  load_gen_.fetch_add(1, std::memory_order_acq_rel);
  STACCATO_ASSIGN_OR_RETURN(DictionaryTrie trie,
                            DictionaryTrie::Build(dictionary_terms));
  dict_.emplace(std::move(trie));
  index_ = std::make_unique<BPlusTree>();
  term_stats_.clear();
  // A rebuild replaces the postings and dictionary relations; recreating
  // the heap files truncates them so OpenExisting never recovers stale
  // rows.
  STACCATO_RETURN_NOT_OK(base_->ResetIndex());
  for (size_t i = 0; i < base_->NumDocuments(); ++i) {
    STACCATO_ASSIGN_OR_RETURN(std::string blob,
                              base_->ReadBlob(i, /*full_sfa=*/false));
    STACCATO_ASSIGN_OR_RETURN(Sfa sfa, Sfa::Deserialize(blob));
    STACCATO_ASSIGN_OR_RETURN(PackedPostings postings,
                              DocPostings(sfa, *dict_));
    STACCATO_RETURN_NOT_OK(
        base_->AppendPostings(static_cast<int64_t>(i), postings));
  }
  STACCATO_RETURN_NOT_OK(base_->postings()->Flush());
  STACCATO_RETURN_NOT_OK(
      IndexPostings(base_->postings(), index_.get(), &term_stats_));
  // OpenExisting rebuilds the trie from these terms, so a term without
  // postings still anchors an index probe after a reopen.
  STACCATO_RETURN_NOT_OK(base_->WriteDictionary(dict_->terms()));
  // Delta documents keep their postings in memory (ProbeIndex merges them
  // at query time); recompute against the new dictionary, copy-on-write so
  // a concurrent query's snapshot keeps observing the old vocabulary.
  for (std::shared_ptr<const DeltaDoc>& dptr : delta_) {
    STACCATO_ASSIGN_OR_RETURN(Sfa chunked, Sfa::Deserialize(dptr->graph_blob));
    auto copy = std::make_shared<DeltaDoc>(*dptr);
    STACCATO_ASSIGN_OR_RETURN(copy->postings, DocPostings(chunked, *dict_));
    dptr = std::move(copy);
  }
  return Status::OK();
}

std::shared_ptr<const DeltaDoc> StaccatoDb::DeltaDocOf(DocId doc) const {
  util::MutexLock lock(&ingest_mu_);
  const size_t base_docs = base_->NumDocuments();
  if (doc < base_docs || doc - base_docs >= delta_.size()) return nullptr;
  return delta_[doc - base_docs];
}

Result<std::string> StaccatoDb::ReadBlob(DocId doc, bool full_sfa) {
  if (std::shared_ptr<const DeltaDoc> d = DeltaDocOf(doc)) {
    return full_sfa ? d->full_blob : d->graph_blob;
  }
  return base_->ReadBlob(doc, full_sfa);
}

Result<std::string> StaccatoDb::ReadStaccatoBlob(DocId doc) {
  return ReadBlob(doc, /*full_sfa=*/false);
}

Result<std::string> StaccatoDb::ReadFullSfaBlob(DocId doc) {
  return ReadBlob(doc, /*full_sfa=*/true);
}

PlanContext StaccatoDb::MakePlanContext() {
  // The delta snapshot, the document count, and the generations must be
  // mutually consistent, so the whole snapshot is taken under the ingest
  // mutex (an Append between reads would, e.g., count a document the
  // delta vector doesn't carry). Published DeltaDocs are immutable —
  // execution after the snapshot runs lock-free.
  util::MutexLock lock(&ingest_mu_);
  const size_t base_docs = base_->NumDocuments();
  PlanContext ctx;
  ctx.base = base_.get();
  ctx.index = index_.get();
  ctx.dict = dict_ ? &*dict_ : nullptr;
  ctx.num_sfas = base_docs + delta_.size();
  ctx.cache = cache_.get();
  ctx.term_stats = index_ ? &term_stats_ : nullptr;
  ctx.load_generation = load_gen_.load(std::memory_order_acquire);
  ctx.blob_generation = blob_gen_.load(std::memory_order_acquire);
  ctx.delta.base_docs = base_docs;
  ctx.delta.docs = delta_;
  return ctx;
}

Result<std::set<DocId>> StaccatoDb::GroundTruthFor(const std::string& pattern) {
  STACCATO_ASSIGN_OR_RETURN(Dfa dfa, Dfa::Compile(pattern, MatchMode::kContains));
  std::set<DocId> truth;
  STACCATO_RETURN_NOT_OK(base_->truth()->Scan([&](RecordId, const Tuple& t) {
    if (dfa.Matches(t[1].AsString())) {
      truth.insert(static_cast<DocId>(t[0].AsInt()));
    }
    return true;
  }));
  util::MutexLock lock(&ingest_mu_);
  for (size_t i = 0; i < delta_.size(); ++i) {
    if (dfa.Matches(delta_[i]->truth)) {
      truth.insert(static_cast<DocId>(base_->NumDocuments() + i));
    }
  }
  return truth;
}

StorageReport StaccatoDb::Storage() const {
  StorageReport r;
  r.kmap_table_bytes = base_->kmap()->FileBytes();
  r.blob_bytes = base_->blobs()->FileBytes();
  r.staccato_table_bytes = base_->staccato()->FileBytes();
  r.index_entries = index_ ? index_->size() : 0;
  return r;
}

Status StaccatoDb::DropCaches() {
  if (cache_ != nullptr) cache_->Clear();
  return Status::OK();
}

}  // namespace staccato::rdbms
