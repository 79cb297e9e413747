#include "rdbms/staccato_db.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_map>

#include "automata/dfa.h"
#include "indexing/index_builder.h"
#include "inference/kbest.h"
#include "rdbms/kmap_row.h"
#include "rdbms/session.h"
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

// ---- Epoch-suffixed storage paths ------------------------------------------
//
// Checkpoint never rewrites the live epoch's files in place (a crash
// mid-fold would leave, e.g., duplicated kMAPData rows that double match
// probabilities). It writes a complete fresh epoch and then commits it by
// atomically replacing the `staccato.meta` pointer. Epoch 0 keeps the
// legacy unsuffixed names so pre-WAL directories reopen unchanged.

std::string TableFile(const std::string& dir, const char* base,
                      uint64_t epoch) {
  if (epoch == 0) return dir + "/" + base + ".tbl";
  return dir + "/" + base + "." + std::to_string(epoch) + ".tbl";
}

std::string BlobFile(const std::string& dir, uint64_t epoch) {
  if (epoch == 0) return dir + "/blobs.dat";
  return dir + "/blobs." + std::to_string(epoch) + ".dat";
}

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
  uint64_t kmap_k;
  uint64_t staccato_m;
  uint64_t staccato_k;

  DbMeta() {
    const LoadOptions defaults;  // absent meta = the default load knobs
    kmap_k = defaults.kmap_k;
    staccato_m = defaults.staccato.m;
    staccato_k = defaults.staccato.k;
  }
};

Status WriteMetaAtomic(const std::string& dir, const DbMeta& meta) {
  BinaryWriter w;
  w.PutRaw(kMetaMagic, sizeof(kMetaMagic));
  w.PutU64(meta.epoch);
  w.PutU64(meta.kmap_k);
  w.PutU64(meta.staccato_m);
  w.PutU64(meta.staccato_k);
  w.PutU32(util::Crc32(w.buffer()));
  const std::string path = MetaPath(dir);
  const std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create " + tmp);
  Status st = util::CheckedWrite(f, w.buffer().data(), w.size(), tmp);
  if (st.ok()) st = util::CheckedSync(f, tmp);
  fclose(f);
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  // The atomic commit point: readers see either the old pointer or the
  // new one, never a torn write.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot commit " + path);
  }
  // The rename is durable only once the directory entry is: without this
  // sync a power loss could keep Checkpoint's later WAL truncate but lose
  // the rename, dropping committed appends.
  return util::SyncDir(dir);
}

Result<DbMeta> ReadMeta(const std::string& dir) {
  FILE* f = fopen(MetaPath(dir).c_str(), "rb");
  if (f == nullptr) return DbMeta{};  // never checkpointed: epoch 0
  std::string data;
  char buf[256];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  const bool read_err = ferror(f) != 0;
  fclose(f);
  if (read_err) return Status::IOError("cannot read " + MetaPath(dir));
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
  STACCATO_ASSIGN_OR_RETURN(meta.kmap_k, r.GetU64());
  STACCATO_ASSIGN_OR_RETURN(meta.staccato_m, r.GetU64());
  STACCATO_ASSIGN_OR_RETURN(meta.staccato_k, r.GetU64());
  STACCATO_ASSIGN_OR_RETURN(uint32_t crc, r.GetU32());
  if (crc != util::Crc32(data.data(), kMetaPayload)) {
    return Status::Corruption("meta checksum mismatch " + MetaPath(dir));
  }
  return meta;
}

}  // namespace

Result<std::unique_ptr<StaccatoDb>> StaccatoDb::Open(const std::string& dir,
                                                     cache::CacheConfig cache) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory " + dir);
  auto db = std::unique_ptr<StaccatoDb>(new StaccatoDb(dir));
  STACCATO_ASSIGN_OR_RETURN(
      db->master_, HeapTable::Create(TableFile(dir, "master", 0), MasterSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      db->truth_, HeapTable::Create(TableFile(dir, "truth", 0), TruthSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      db->kmap_, HeapTable::Create(TableFile(dir, "kmap", 0), KMapSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      db->fullsfa_,
      HeapTable::Create(TableFile(dir, "fullsfa", 0), FullSfaSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      db->staccato_,
      HeapTable::Create(TableFile(dir, "staccato", 0), StaccatoDataSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      db->staccato_graph_,
      HeapTable::Create(TableFile(dir, "staccato_graph", 0),
                        StaccatoGraphSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      db->postings_,
      HeapTable::Create(TableFile(dir, "postings", 0), PostingsSchema()));
  STACCATO_ASSIGN_OR_RETURN(db->blobs_, BlobStore::Create(BlobFile(dir, 0)));
  if (cache.budget_bytes > 0) {
    db->cache_ = std::make_unique<cache::BufferCache>(cache.budget_bytes,
                                                      cache.shards);
  }
  db->WireCache();
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
  auto db = std::unique_ptr<StaccatoDb>(new StaccatoDb(dir));
  // The meta pointer names the committed epoch (0 when absent) and
  // carries the load parameters appends must reuse.
  STACCATO_ASSIGN_OR_RETURN(DbMeta meta, ReadMeta(dir));
  const uint64_t epoch = meta.epoch;
  STACCATO_ASSIGN_OR_RETURN(
      db->master_,
      HeapTable::Open(TableFile(dir, "master", epoch), MasterSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      db->truth_, HeapTable::Open(TableFile(dir, "truth", epoch), TruthSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      db->kmap_, HeapTable::Open(TableFile(dir, "kmap", epoch), KMapSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      db->fullsfa_,
      HeapTable::Open(TableFile(dir, "fullsfa", epoch), FullSfaSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      db->staccato_,
      HeapTable::Open(TableFile(dir, "staccato", epoch), StaccatoDataSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      db->staccato_graph_,
      HeapTable::Open(TableFile(dir, "staccato_graph", epoch),
                      StaccatoGraphSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      db->postings_,
      HeapTable::Open(TableFile(dir, "postings", epoch), PostingsSchema()));
  STACCATO_ASSIGN_OR_RETURN(db->blobs_, BlobStore::Open(BlobFile(dir, epoch)));
  if (cache.budget_bytes > 0) {
    db->cache_ = std::make_unique<cache::BufferCache>(cache.budget_bytes,
                                                      cache.shards);
  }
  db->WireCache();

  // Recover the DataKey -> blob-row maps from the tables themselves.
  const size_t n = db->fullsfa_->NumTuples();
  db->num_sfas_.store(n, std::memory_order_release);
  db->fullsfa_rid_.resize(n);
  db->graph_rid_.resize(n);
  STACCATO_RETURN_NOT_OK(db->fullsfa_->Scan([&](RecordId rid, const Tuple& t) {
    size_t key = static_cast<size_t>(t[0].AsInt());
    if (key < n) db->fullsfa_rid_[key] = rid;
    return true;
  }));
  STACCATO_RETURN_NOT_OK(
      db->staccato_graph_->Scan([&](RecordId rid, const Tuple& t) {
        size_t key = static_cast<size_t>(t[0].AsInt());
        if (key < n) db->graph_rid_[key] = rid;
        return true;
      }));

  // Rebuild the in-memory B+-tree (and the dictionary trie) from the
  // persisted postings relation, if an index had been built. The planner's
  // per-term statistics are recovered in the same pass; postings rows were
  // inserted grouped by document, so a term's documents appear in
  // nondecreasing order and distinct docs can be counted with a last-seen
  // map.
  if (db->postings_->NumTuples() > 0) {
    std::set<std::string> terms;
    STACCATO_RETURN_NOT_OK(db->postings_->Scan([&](RecordId, const Tuple& t) {
      terms.insert(t[0].AsString());
      return true;
    }));
    STACCATO_ASSIGN_OR_RETURN(
        DictionaryTrie trie,
        DictionaryTrie::Build({terms.begin(), terms.end()}));
    db->dict_.emplace(std::move(trie));
    db->index_ = std::make_unique<BPlusTree>();
    std::unordered_map<std::string, int64_t> last_doc;
    STACCATO_RETURN_NOT_OK(db->postings_->Scan([&](RecordId rid, const Tuple& t) {
      const std::string& term = t[0].AsString();
      db->index_->Insert(term, PackRecordId(rid));
      TermStats& st = db->term_stats_[term];
      ++st.postings;
      auto [it, fresh] = last_doc.emplace(term, t[1].AsInt());
      if (fresh || it->second != t[1].AsInt()) {
        it->second = t[1].AsInt();
        ++st.docs;
      }
      return true;
    }));
  }

  {
    util::MutexLock lock(&db->ingest_mu_);
    db->epoch_ = epoch;
    db->base_docs_ = n;
    db->load_opts_.kmap_k = meta.kmap_k;
    db->load_opts_.staccato.m = meta.staccato_m;
    db->load_opts_.staccato.k = meta.staccato_k;
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
    std::string rec;
    WalDocRecord pending;
    uint32_t pending_crc = 0;
    bool have_pending = false;
    while (reader.ReadRecord(&rec)) {
      if (rec.empty()) break;
      const uint8_t tag = static_cast<uint8_t>(rec[0]);
      if (tag == kWalDocTag) {
        auto doc = DecodeWalDoc(rec);
        if (!doc.ok()) break;  // committed-prefix semantics: stop here
        pending = std::move(*doc);
        pending_crc = util::Crc32(rec);
        have_pending = true;
        continue;
      }
      if (tag != kWalCommitTag) break;
      auto commit = DecodeWalCommit(rec);
      // Header-last: a commit record applies its document only when it
      // binds the exact bytes of the doc record that precedes it.
      if (!commit.ok() || !have_pending || commit->seq != pending.seq ||
          commit->payload_crc != pending_crc) {
        break;
      }
      have_pending = false;
      const uint64_t next = base_docs_ + delta_.size();
      if (pending.seq < next) {
        // Already folded into the base by a checkpoint that committed its
        // meta pointer but crashed before truncating the log.
        resume = reader.last_record_end();
        continue;
      }
      if (pending.seq != next) break;  // gap: nothing past it can apply
      STACCATO_ASSIGN_OR_RETURN(std::shared_ptr<const DeltaDoc> d,
                                MaterializeDelta(pending));
      delta_.push_back(std::move(d));
      num_sfas_.fetch_add(1, std::memory_order_release);
      resume = reader.last_record_end();
    }
  } else if (!reader_or.status().IsNotFound()) {
    return reader_or.status();
  }
  // Position the writer just past the applied prefix: a torn tail — or an
  // orphaned doc record whose commit never made it — is truncated away.
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
  const std::vector<ScoredString> top = KBestStrings(sfa, rec.kmap_k);
  d->kmap.reserve(top.size());
  for (const ScoredString& s : top) {
    d->kmap.push_back({s.str, std::log(s.prob)});
  }
  StaccatoParams params = load_opts_.staccato;
  params.m = rec.staccato_m;
  params.k = rec.staccato_k;
  STACCATO_ASSIGN_OR_RETURN(Sfa chunked, ApproximateSfa(sfa, params));
  d->graph_blob = chunked.Serialize();
  if (dict_) {
    STACCATO_ASSIGN_OR_RETURN(PostingMap pm, BuildPostings(chunked, *dict_));
    for (const auto& [tid, vec] : pm) {
      std::vector<uint64_t>& dst = d->postings[dict_->term(tid)];
      dst.reserve(vec.size());
      for (const Posting& p : vec) dst.push_back(PackPosting(p));
    }
  }
  return std::shared_ptr<const DeltaDoc>(std::move(d));
}

Status StaccatoDb::Append(const DocumentInput& doc) {
  util::MutexLock lock(&ingest_mu_);
  if (wal_ == nullptr) return Status::Internal("database has no write-ahead log");
  WalDocRecord rec;
  rec.seq = base_docs_ + delta_.size();
  rec.doc_name = doc.doc_name;
  rec.year = doc.year;
  rec.truth = doc.truth;
  rec.kmap_k = load_opts_.kmap_k;
  rec.staccato_m = load_opts_.staccato.m;
  rec.staccato_k = load_opts_.staccato.k;
  rec.full_sfa = doc.sfa.Serialize();
  const std::string payload = EncodeWalDoc(rec);
  WalCommitRecord commit;
  commit.seq = rec.seq;
  commit.payload_crc = util::Crc32(payload);
  // Durability first: the document exists exactly when its commit record
  // is on disk (per the sync policy).
  struct WalMetrics {
    telemetry::Counter* commits;
    telemetry::Histogram* commit_us;
  };
  static const WalMetrics wal_metrics = [] {
    auto& r = telemetry::MetricsRegistry::Global();
    return WalMetrics{r.GetCounter("staccato_wal_commits_total"),
                      r.GetHistogram("staccato_wal_commit_us")};
  }();
  // The interval spans record append through fsync (Commit), i.e. the
  // full durability cost of one ingest — the figure an fsync-bound
  // ingest pipeline needs to see.
  const uint64_t commit_start_ns = telemetry::MonotonicNanos();
  STACCATO_RETURN_NOT_OK(wal_->AddRecord(payload));
  STACCATO_RETURN_NOT_OK(wal_->AddRecord(EncodeWalCommit(commit)));
  STACCATO_RETURN_NOT_OK(wal_->Commit());
  wal_metrics.commits->Increment();
  wal_metrics.commit_us->Record(
      (telemetry::MonotonicNanos() - commit_start_ns) / 1000);
  // Materialize from the *serialized* record, exactly as replay would —
  // a crashed-and-recovered database serves bit-identical delta state.
  STACCATO_ASSIGN_OR_RETURN(std::shared_ptr<const DeltaDoc> d,
                            MaterializeDelta(rec));
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

  const uint64_t ne = epoch_ + 1;
  const size_t total = base_docs_ + delta_.size();

  STACCATO_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapTable> nmaster,
      HeapTable::Create(TableFile(dir_, "master", ne), MasterSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapTable> ntruth,
      HeapTable::Create(TableFile(dir_, "truth", ne), TruthSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapTable> nkmap,
      HeapTable::Create(TableFile(dir_, "kmap", ne), KMapSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapTable> nfullsfa,
      HeapTable::Create(TableFile(dir_, "fullsfa", ne), FullSfaSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapTable> nstaccato,
      HeapTable::Create(TableFile(dir_, "staccato", ne), StaccatoDataSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapTable> ngraph,
      HeapTable::Create(TableFile(dir_, "staccato_graph", ne),
                        StaccatoGraphSchema()));
  STACCATO_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapTable> npostings,
      HeapTable::Create(TableFile(dir_, "postings", ne), PostingsSchema()));
  STACCATO_ASSIGN_OR_RETURN(std::unique_ptr<BlobStore> nblobs,
                            BlobStore::Create(BlobFile(dir_, ne)));

  auto copy_rows = [](HeapTable* src, HeapTable* dst) -> Status {
    Status row_st = Status::OK();
    STACCATO_RETURN_NOT_OK(src->Scan([&](RecordId, const Tuple& t) {
      row_st = dst->Insert(t).status();
      return row_st.ok();
    }));
    return row_st;
  };
  STACCATO_RETURN_NOT_OK(copy_rows(master_.get(), nmaster.get()));
  STACCATO_RETURN_NOT_OK(copy_rows(truth_.get(), ntruth.get()));
  STACCATO_RETURN_NOT_OK(copy_rows(kmap_.get(), nkmap.get()));
  STACCATO_RETURN_NOT_OK(copy_rows(staccato_.get(), nstaccato.get()));

  // Blob-holding rows cannot be copied verbatim: blob ids are offsets in
  // the epoch's blob file. Re-put every base document's blobs — the bytes
  // are preserved exactly, which is what keeps the warm blob cache valid
  // across the fold (BlobCacheKey carries blob_generation, untouched here).
  std::vector<RecordId> nfull_rid(total);
  std::vector<RecordId> ngraph_rid(total);
  for (size_t i = 0; i < base_docs_; ++i) {
    STACCATO_ASSIGN_OR_RETURN(Tuple ft, fullsfa_->Get(fullsfa_rid_[i]));
    STACCATO_ASSIGN_OR_RETURN(std::string fblob, blobs_->Get(ft[1].AsBlobId()));
    STACCATO_ASSIGN_OR_RETURN(BlobId fid, nblobs->Put(fblob));
    STACCATO_ASSIGN_OR_RETURN(
        nfull_rid[i], nfullsfa->Insert({Value::Int(static_cast<int64_t>(i)),
                                        Value::Blob(fid)}));
    STACCATO_ASSIGN_OR_RETURN(Tuple gt, staccato_graph_->Get(graph_rid_[i]));
    STACCATO_ASSIGN_OR_RETURN(std::string gblob, blobs_->Get(gt[1].AsBlobId()));
    STACCATO_ASSIGN_OR_RETURN(BlobId gid, nblobs->Put(gblob));
    STACCATO_ASSIGN_OR_RETURN(
        ngraph_rid[i], ngraph->Insert({Value::Int(static_cast<int64_t>(i)),
                                       Value::Blob(gid)}));
  }

  // Delta documents become ordinary base rows, derived from the exact
  // in-memory state queries were already serving.
  for (size_t i = 0; i < delta_.size(); ++i) {
    const DeltaDoc& d = *delta_[i];
    const int64_t key = static_cast<int64_t>(base_docs_ + i);
    STACCATO_RETURN_NOT_OK(
        nmaster
            ->Insert({Value::Int(key), Value::String(d.doc_name),
                      Value::Int(d.year), Value::Int(key)})
            .status());
    STACCATO_RETURN_NOT_OK(
        ntruth->Insert({Value::Int(key), Value::String(d.truth)}).status());
    for (size_t r = 0; r < d.kmap.size(); ++r) {
      STACCATO_RETURN_NOT_OK(
          nkmap
              ->Insert(KMapTuple(key, static_cast<int64_t>(r), d.kmap[r].str,
                                 d.kmap[r].log_prob))
              .status());
    }
    STACCATO_ASSIGN_OR_RETURN(BlobId fid, nblobs->Put(d.full_blob));
    STACCATO_ASSIGN_OR_RETURN(
        nfull_rid[base_docs_ + i],
        nfullsfa->Insert({Value::Int(key), Value::Blob(fid)}));
    STACCATO_ASSIGN_OR_RETURN(Sfa chunked, Sfa::Deserialize(d.graph_blob));
    for (EdgeId e = 0; e < chunked.NumEdges(); ++e) {
      const Edge& edge = chunked.edge(e);
      for (size_t r = 0; r < edge.transitions.size(); ++r) {
        STACCATO_RETURN_NOT_OK(
            nstaccato
                ->Insert({Value::Int(key), Value::Int(static_cast<int64_t>(e)),
                          Value::Int(static_cast<int64_t>(r)),
                          Value::String(edge.transitions[r].label),
                          Value::Double(std::log(edge.transitions[r].prob))})
                .status());
      }
    }
    STACCATO_ASSIGN_OR_RETURN(BlobId gid, nblobs->Put(d.graph_blob));
    STACCATO_ASSIGN_OR_RETURN(
        ngraph_rid[base_docs_ + i],
        ngraph->Insert({Value::Int(key), Value::Blob(gid)}));
  }

  // Postings: copy the base rows into the new relation (re-pointing the
  // B+-tree at the new record ids), then append the delta documents'
  // in-memory postings. The dictionary trie is reused unchanged, so
  // anchor resolution is untouched by a checkpoint.
  std::unique_ptr<BPlusTree> nindex;
  TermStatsMap nstats;
  if (dict_) {
    nindex = std::make_unique<BPlusTree>();
    Status row_st = Status::OK();
    std::unordered_map<std::string, int64_t> last_doc;
    STACCATO_RETURN_NOT_OK(postings_->Scan([&](RecordId, const Tuple& t) {
      Result<RecordId> rid = npostings->Insert(t);
      if (!rid.ok()) {
        row_st = rid.status();
        return false;
      }
      const std::string& term = t[0].AsString();
      nindex->Insert(term, PackRecordId(*rid));
      TermStats& st = nstats[term];
      ++st.postings;
      auto [it, fresh] = last_doc.emplace(term, t[1].AsInt());
      if (fresh || it->second != t[1].AsInt()) {
        it->second = t[1].AsInt();
        ++st.docs;
      }
      return true;
    }));
    STACCATO_RETURN_NOT_OK(row_st);
    for (size_t i = 0; i < delta_.size(); ++i) {
      const int64_t key = static_cast<int64_t>(base_docs_ + i);
      for (const auto& [term, vec] : delta_[i]->postings) {
        TermStats& st = nstats[term];
        st.postings += vec.size();
        ++st.docs;
        for (uint64_t packed : vec) {
          STACCATO_ASSIGN_OR_RETURN(
              RecordId rid,
              npostings->Insert({Value::String(term), Value::Int(key),
                                 Value::Int(static_cast<int64_t>(packed))}));
          nindex->Insert(term, PackRecordId(rid));
        }
      }
    }
  }

  // Durability barrier: everything the new epoch references must be on
  // disk before the meta pointer names it.
  STACCATO_RETURN_NOT_OK(nmaster->Sync());
  STACCATO_RETURN_NOT_OK(ntruth->Sync());
  STACCATO_RETURN_NOT_OK(nkmap->Sync());
  STACCATO_RETURN_NOT_OK(nfullsfa->Sync());
  STACCATO_RETURN_NOT_OK(nstaccato->Sync());
  STACCATO_RETURN_NOT_OK(ngraph->Sync());
  STACCATO_RETURN_NOT_OK(npostings->Sync());
  STACCATO_RETURN_NOT_OK(nblobs->Sync());

  DbMeta meta;
  meta.epoch = ne;
  meta.kmap_k = load_opts_.kmap_k;
  meta.staccato_m = load_opts_.staccato.m;
  meta.staccato_k = load_opts_.staccato.k;
  // The commit point: after this rename, recovery opens the new epoch and
  // skips every WAL record below the new base (absolute sequence numbers
  // make the replay idempotent until the log is truncated below).
  STACCATO_RETURN_NOT_OK(WriteMetaAtomic(dir_, meta));

  const std::vector<std::string> old_files = {
      TableFile(dir_, "master", epoch_), TableFile(dir_, "truth", epoch_),
      TableFile(dir_, "kmap", epoch_), TableFile(dir_, "fullsfa", epoch_),
      TableFile(dir_, "staccato", epoch_),
      TableFile(dir_, "staccato_graph", epoch_),
      TableFile(dir_, "postings", epoch_), BlobFile(dir_, epoch_)};
  const std::vector<uint64_t> old_spaces = {
      master_->cache_space(), truth_->cache_space(), kmap_->cache_space(),
      fullsfa_->cache_space(), staccato_->cache_space(),
      staccato_graph_->cache_space(), postings_->cache_space()};
  master_ = std::move(nmaster);
  truth_ = std::move(ntruth);
  kmap_ = std::move(nkmap);
  fullsfa_ = std::move(nfullsfa);
  staccato_ = std::move(nstaccato);
  staccato_graph_ = std::move(ngraph);
  postings_ = std::move(npostings);
  blobs_ = std::move(nblobs);
  fullsfa_rid_ = std::move(nfull_rid);
  graph_rid_ = std::move(ngraph_rid);
  if (dict_) {
    index_ = std::move(nindex);
    term_stats_ = std::move(nstats);
  }
  epoch_ = ne;
  base_docs_ = total;
  delta_.clear();
  WireCache();
  if (cache_ != nullptr) {
    for (uint64_t space : old_spaces) cache_->EraseSpace(space);
  }
  // Record ids and table handles changed: frozen plans must re-resolve
  // (load_gen_ bump). Blob *bytes* per document did not — blob_gen_ stays
  // put, keeping the warm blob cache valid.
  load_gen_.fetch_add(1, std::memory_order_acq_rel);
  STACCATO_RETURN_NOT_OK(wal_->Reset());
  for (const std::string& f : old_files) std::remove(f.c_str());
  return Status::OK();
}

size_t StaccatoDb::DeltaDocs() const {
  util::MutexLock lock(&ingest_mu_);
  return delta_.size();
}

uint64_t StaccatoDb::Epoch() const {
  util::MutexLock lock(&ingest_mu_);
  return epoch_;
}

Status StaccatoDb::Load(const OcrDataset& dataset, const LoadOptions& opts) {
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
  base_docs_ = n;
  load_opts_ = opts;
  STACCATO_RETURN_NOT_OK(wal_->Reset());
  STACCATO_RETURN_NOT_OK(
      ReplaceHeap(&master_, TableFile(dir_, "master", epoch_), MasterSchema()));
  STACCATO_RETURN_NOT_OK(
      ReplaceHeap(&truth_, TableFile(dir_, "truth", epoch_), TruthSchema()));
  STACCATO_RETURN_NOT_OK(
      ReplaceHeap(&kmap_, TableFile(dir_, "kmap", epoch_), KMapSchema()));
  STACCATO_RETURN_NOT_OK(ReplaceHeap(
      &fullsfa_, TableFile(dir_, "fullsfa", epoch_), FullSfaSchema()));
  STACCATO_RETURN_NOT_OK(ReplaceHeap(
      &staccato_, TableFile(dir_, "staccato", epoch_), StaccatoDataSchema()));
  STACCATO_RETURN_NOT_OK(ReplaceHeap(&staccato_graph_,
                                     TableFile(dir_, "staccato_graph", epoch_),
                                     StaccatoGraphSchema()));
  if (blobs_ != nullptr) STACCATO_RETURN_NOT_OK(blobs_->Flush());
  STACCATO_ASSIGN_OR_RETURN(blobs_, BlobStore::Create(BlobFile(dir_, epoch_)));
  WireCache();
  // The generation bumps above already make every cached blob key stale
  // and the fresh table instances carry fresh page namespaces; clearing
  // just releases the dead entries' budget immediately.
  if (cache_ != nullptr) cache_->Clear();
  // Index artifacts describe the old corpus: drop them (and truncate the
  // persisted postings relation) rather than let cost-based planning
  // silently probe stale postings. Callers rebuild with
  // BuildInvertedIndex; frozen index-probe plans fail cleanly until then.
  index_.reset();
  dict_.reset();
  term_stats_.clear();
  STACCATO_RETURN_NOT_OK(ReplacePostingsRelation());

  // Staccato construction is the expensive part; parallelize across SFAs
  // on the shared pool (construction_threads = 0 inherits its capacity).
  STACCATO_ASSIGN_OR_RETURN(
      std::vector<Sfa> chunked,
      ParallelMap<Sfa>(
          n, /*grain=*/1,
          [&](size_t i) { return ApproximateSfa(dataset.sfas[i], opts.staccato); },
          ParallelOptions{opts.construction_threads}));

  fullsfa_rid_.resize(n);
  graph_rid_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t key = static_cast<int64_t>(i);
    uint32_t page = dataset.corpus.page_of_line[i];
    std::string doc_name = StringPrintf(
        "%s-page-%u", dataset.corpus.name.c_str(), page);
    STACCATO_RETURN_NOT_OK(
        master_
            ->Insert({Value::Int(key), Value::String(doc_name),
                      Value::Int(kBaseYear + page),
                      Value::Int(static_cast<int64_t>(i))})
            .status());
    STACCATO_RETURN_NOT_OK(
        truth_
            ->Insert({Value::Int(key), Value::String(dataset.corpus.lines[i])})
            .status());

    // k-MAP rows (rank 0 is the MAP transcription).
    std::vector<ScoredString> top = KBestStrings(dataset.sfas[i], opts.kmap_k);
    for (size_t r = 0; r < top.size(); ++r) {
      STACCATO_RETURN_NOT_OK(
          kmap_
              ->Insert(KMapTuple(key, static_cast<int64_t>(r), top[r].str,
                                 std::log(top[r].prob)))
              .status());
    }

    // FullSFA blob.
    STACCATO_ASSIGN_OR_RETURN(BlobId full_id, blobs_->Put(dataset.sfas[i].Serialize()));
    STACCATO_ASSIGN_OR_RETURN(
        RecordId full_rid,
        fullsfa_->Insert({Value::Int(key), Value::Blob(full_id)}));
    fullsfa_rid_[i] = full_rid;

    // Staccato rows: one per (chunk, retained string), plus the graph blob.
    const Sfa& ch = chunked[i];
    for (EdgeId e = 0; e < ch.NumEdges(); ++e) {
      const Edge& edge = ch.edge(e);
      for (size_t r = 0; r < edge.transitions.size(); ++r) {
        STACCATO_RETURN_NOT_OK(
            staccato_
                ->Insert({Value::Int(key), Value::Int(static_cast<int64_t>(e)),
                          Value::Int(static_cast<int64_t>(r)),
                          Value::String(edge.transitions[r].label),
                          Value::Double(std::log(edge.transitions[r].prob))})
                .status());
      }
    }
    STACCATO_ASSIGN_OR_RETURN(BlobId graph_id, blobs_->Put(ch.Serialize()));
    STACCATO_ASSIGN_OR_RETURN(
        RecordId graph_rid,
        staccato_graph_->Insert({Value::Int(key), Value::Blob(graph_id)}));
    graph_rid_[i] = graph_rid;
  }
  STACCATO_RETURN_NOT_OK(master_->Flush());
  STACCATO_RETURN_NOT_OK(truth_->Flush());
  STACCATO_RETURN_NOT_OK(kmap_->Flush());
  STACCATO_RETURN_NOT_OK(fullsfa_->Flush());
  STACCATO_RETURN_NOT_OK(staccato_->Flush());
  STACCATO_RETURN_NOT_OK(staccato_graph_->Flush());
  // Persist the load parameters: a reopened database must append with the
  // same derivation knobs or its delta would diverge from the base.
  DbMeta meta;
  meta.epoch = epoch_;
  meta.kmap_k = opts.kmap_k;
  meta.staccato_m = opts.staccato.m;
  meta.staccato_k = opts.staccato.k;
  return WriteMetaAtomic(dir_, meta);
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
  // A rebuild replaces the postings relation; recreating the heap file
  // truncates it so OpenExisting never recovers stale rows.
  STACCATO_RETURN_NOT_OK(ReplacePostingsRelation());
  for (size_t i = 0; i < base_docs_; ++i) {
    STACCATO_ASSIGN_OR_RETURN(Tuple t, staccato_graph_->Get(graph_rid_[i]));
    STACCATO_ASSIGN_OR_RETURN(std::string blob, blobs_->Get(t[1].AsBlobId()));
    STACCATO_ASSIGN_OR_RETURN(Sfa sfa, Sfa::Deserialize(blob));
    STACCATO_ASSIGN_OR_RETURN(PostingMap postings, BuildPostings(sfa, *dict_));
    for (const auto& [term, vec] : postings) {
      // One PostingMap entry per (doc, term): maintain the planner's
      // posting-count / distinct-doc statistics as the index grows.
      TermStats& st = term_stats_[dict_->term(term)];
      st.postings += vec.size();
      ++st.docs;
      for (const Posting& p : vec) {
        STACCATO_ASSIGN_OR_RETURN(
            RecordId rid,
            postings_->Insert({Value::String(dict_->term(term)),
                               Value::Int(static_cast<int64_t>(i)),
                               Value::Int(static_cast<int64_t>(PackPosting(p)))}));
        index_->Insert(dict_->term(term), PackRecordId(rid));
      }
    }
  }
  STACCATO_RETURN_NOT_OK(postings_->Flush());
  // Delta documents keep their postings in memory (ProbeIndex merges them
  // at query time); recompute against the new dictionary, copy-on-write so
  // a concurrent query's snapshot keeps observing the old vocabulary.
  for (std::shared_ptr<const DeltaDoc>& dptr : delta_) {
    STACCATO_ASSIGN_OR_RETURN(Sfa chunked, Sfa::Deserialize(dptr->graph_blob));
    STACCATO_ASSIGN_OR_RETURN(PostingMap pm, BuildPostings(chunked, *dict_));
    auto copy = std::make_shared<DeltaDoc>(*dptr);
    copy->postings.clear();
    for (const auto& [tid, vec] : pm) {
      std::vector<uint64_t>& dst = copy->postings[dict_->term(tid)];
      dst.reserve(vec.size());
      for (const Posting& p : vec) dst.push_back(PackPosting(p));
    }
    dptr = std::move(copy);
  }
  return Status::OK();
}

Status StaccatoDb::ReplaceHeap(std::unique_ptr<HeapTable>* table,
                               const std::string& path, Schema schema) {
  // Flush the old handle first so it holds no dirty pages — the handle is
  // destroyed only after Create has truncated the file, and a late
  // destructor flush must not write stale pages into it. On any failure
  // the old handle stays in place, so the member is never left null.
  if (*table != nullptr) STACCATO_RETURN_NOT_OK((*table)->Flush());
  STACCATO_ASSIGN_OR_RETURN(*table, HeapTable::Create(path, std::move(schema)));
  // The fresh instance has a fresh cache namespace; wire it into the
  // shared cache so its pages are second-tier cached like the old one's.
  (*table)->SetSharedCache(cache_.get());
  return Status::OK();
}

void StaccatoDb::WireCache() {
  cache::BufferCache* c = cache_.get();
  blobs_->set_cache(c);
  master_->SetSharedCache(c);
  truth_->SetSharedCache(c);
  kmap_->SetSharedCache(c);
  fullsfa_->SetSharedCache(c);
  staccato_->SetSharedCache(c);
  staccato_graph_->SetSharedCache(c);
  postings_->SetSharedCache(c);
}

Status StaccatoDb::ReplacePostingsRelation() {
  return ReplaceHeap(&postings_, TableFile(dir_, "postings", epoch_),
                     PostingsSchema());
}

Result<cache::BufferCache::Handle> StaccatoDb::FetchBlobCached(DocId doc,
                                                               bool full_sfa) {
  {
    // Delta documents live in memory: serve a detached handle over a copy
    // of the exact bytes a checkpoint would persist.
    util::MutexLock lock(&ingest_mu_);
    if (doc >= base_docs_ && doc - base_docs_ < delta_.size()) {
      const DeltaDoc& d = *delta_[doc - base_docs_];
      return cache::BufferCache::Detached(
          std::string(full_sfa ? d.full_blob : d.graph_blob));
    }
  }
  // A cache hit serves the pinned bytes straight away; only a miss pays
  // the heap point get that resolves the blob id — same shape as the
  // executor's streaming Fetch.
  return blobs_->GetCached(
      BlobCacheKey(full_sfa, doc, blob_gen_.load(std::memory_order_acquire)),
      [&]() -> Result<BlobId> {
        const std::vector<RecordId>& rids =
            full_sfa ? fullsfa_rid_ : graph_rid_;
        if (doc >= rids.size()) return Status::NotFound("no such DataKey");
        HeapTable* table = full_sfa ? fullsfa_.get() : staccato_graph_.get();
        STACCATO_ASSIGN_OR_RETURN(Tuple t, table->Get(rids[doc]));
        return t[1].AsBlobId();
      });
}

Result<std::string> StaccatoDb::ReadStaccatoBlob(DocId doc) {
  {
    util::MutexLock lock(&ingest_mu_);
    if (doc >= base_docs_ && doc - base_docs_ < delta_.size()) {
      return delta_[doc - base_docs_]->graph_blob;
    }
  }
  if (doc >= graph_rid_.size()) return Status::NotFound("no such DataKey");
  STACCATO_ASSIGN_OR_RETURN(Tuple t, staccato_graph_->Get(graph_rid_[doc]));
  return blobs_->Get(t[1].AsBlobId());
}

Result<std::string> StaccatoDb::ReadFullSfaBlob(DocId doc) {
  {
    util::MutexLock lock(&ingest_mu_);
    if (doc >= base_docs_ && doc - base_docs_ < delta_.size()) {
      return delta_[doc - base_docs_]->full_blob;
    }
  }
  if (doc >= fullsfa_rid_.size()) return Status::NotFound("no such DataKey");
  STACCATO_ASSIGN_OR_RETURN(Tuple t, fullsfa_->Get(fullsfa_rid_[doc]));
  return blobs_->Get(t[1].AsBlobId());
}

Result<Sfa> StaccatoDb::LoadStaccatoSfa(DocId doc) {
  STACCATO_ASSIGN_OR_RETURN(std::string blob, ReadStaccatoBlob(doc));
  return Sfa::Deserialize(blob);
}

Result<Sfa> StaccatoDb::LoadFullSfa(DocId doc) {
  STACCATO_ASSIGN_OR_RETURN(std::string blob, ReadFullSfaBlob(doc));
  return Sfa::Deserialize(blob);
}

PlanContext StaccatoDb::MakePlanContext() {
  // The delta snapshot, the document count, and the generations must be
  // mutually consistent, so the whole snapshot is taken under the ingest
  // mutex (an Append between reads would, e.g., count a document the
  // delta vector doesn't carry). Published DeltaDocs are immutable —
  // execution after the snapshot runs lock-free.
  util::MutexLock lock(&ingest_mu_);
  PlanContext ctx;
  ctx.master = master_.get();
  ctx.kmap = kmap_.get();
  ctx.postings = postings_.get();
  ctx.fullsfa = fullsfa_.get();
  ctx.staccato_graph = staccato_graph_.get();
  ctx.blobs = blobs_.get();
  ctx.index = index_.get();
  ctx.dict = dict_ ? &*dict_ : nullptr;
  ctx.fullsfa_rid = &fullsfa_rid_;
  ctx.graph_rid = &graph_rid_;
  ctx.num_sfas = base_docs_ + delta_.size();
  ctx.cache = cache_.get();
  ctx.term_stats = index_ ? &term_stats_ : nullptr;
  ctx.load_generation = load_gen_.load(std::memory_order_acquire);
  ctx.blob_generation = blob_gen_.load(std::memory_order_acquire);
  ctx.delta.base_docs = base_docs_;
  ctx.delta.docs = delta_;
  return ctx;
}

Result<std::vector<Answer>> StaccatoDb::Query(Approach approach,
                                              const QueryOptions& q,
                                              QueryStats* stats) {
  // The one-shot path stays serial unless the caller asks for workers, so
  // legacy timing comparisons (MAP filescan vs FullSFA) are undisturbed.
  // It is also not cost-based: benches built on this facade measure the
  // path they name, so kAuto pins the full scan and only an explicit
  // IndexMode::kForce probes the index.
  QueryOptions pinned = q;
  if (pinned.index_mode == IndexMode::kAuto) {
    pinned.index_mode = IndexMode::kNever;
  }
  Session session(this, SessionOptions{/*eval_threads=*/1, q.num_ans});
  STACCATO_ASSIGN_OR_RETURN(PreparedQuery pq, session.Prepare(approach, pinned));
  return pq.Execute(stats);
}

Result<std::vector<Answer>> StaccatoDb::QuerySql(Approach approach,
                                                 const std::string& sql,
                                                 QueryStats* stats) {
  Session session(this, SessionOptions{/*eval_threads=*/1, /*num_ans=*/100});
  STACCATO_ASSIGN_OR_RETURN(PreparedQuery pq,
                            session.PrepareSql(approach, sql));
  return pq.Execute(stats);
}

Result<std::set<DocId>> StaccatoDb::GroundTruthFor(const std::string& pattern) {
  STACCATO_ASSIGN_OR_RETURN(Dfa dfa, Dfa::Compile(pattern, MatchMode::kContains));
  std::set<DocId> truth;
  STACCATO_RETURN_NOT_OK(truth_->Scan([&](RecordId, const Tuple& t) {
    if (dfa.Matches(t[1].AsString())) {
      truth.insert(static_cast<DocId>(t[0].AsInt()));
    }
    return true;
  }));
  util::MutexLock lock(&ingest_mu_);
  for (size_t i = 0; i < delta_.size(); ++i) {
    if (dfa.Matches(delta_[i]->truth)) {
      truth.insert(static_cast<DocId>(base_docs_ + i));
    }
  }
  return truth;
}

StorageReport StaccatoDb::Storage() const {
  StorageReport r;
  r.kmap_table_bytes = kmap_->FileBytes();
  r.blob_bytes = blobs_->FileBytes();
  r.staccato_table_bytes = staccato_->FileBytes();
  r.index_entries = index_ ? index_->size() : 0;
  return r;
}

Status StaccatoDb::DropCaches() {
  if (cache_ != nullptr) cache_->Clear();
  STACCATO_RETURN_NOT_OK(master_->EvictAll());
  STACCATO_RETURN_NOT_OK(truth_->EvictAll());
  STACCATO_RETURN_NOT_OK(kmap_->EvictAll());
  STACCATO_RETURN_NOT_OK(fullsfa_->EvictAll());
  STACCATO_RETURN_NOT_OK(staccato_->EvictAll());
  STACCATO_RETURN_NOT_OK(staccato_graph_->EvictAll());
  STACCATO_RETURN_NOT_OK(postings_->EvictAll());
  return Status::OK();
}

}  // namespace staccato::rdbms
