// Differential property tests for incremental ingest (StaccatoDb::Append,
// Checkpoint, WAL recovery).
//
// The invariant under test: a database grown by Load(prefix) followed by
// Append() of the remaining documents — with checkpoints, crashes, and
// reopens interleaved anywhere — answers every query bit-identically to a
// database bulk-loaded with the full dataset. "Bit-identical" means the
// same ranked documents with exactly equal probabilities, across
// approaches, early-stop on/off, and 1/4/8 eval threads.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eval/workbench.h"
#include "ocr/corpus.h"
#include "ocr/generator.h"
#include "rdbms/session.h"
#include "rdbms/staccato_db.h"
#include "rdbms/wal.h"
#include "util/crc32.h"
#include "util/fault_fs.h"
#include "util/serde.h"
#include "util/strings.h"

namespace staccato {
namespace rdbms {
namespace {

CorpusSpec SmallSpec() {
  CorpusSpec spec;
  spec.kind = DatasetKind::kCongressActs;
  spec.num_pages = 2;
  spec.lines_per_page = 10;
  spec.max_line_chars = 40;
  spec.seed = 4242;
  return spec;
}

OcrNoiseModel Noise() {
  OcrNoiseModel noise;
  noise.alternatives = 6;
  return noise;
}

LoadOptions SmallLoad() {
  LoadOptions opts;
  opts.kmap_k = 8;
  opts.staccato.m = 16;
  opts.staccato.k = 8;
  return opts;
}

/// The first `n` documents of `d`, presented as a dataset of its own (the
/// corpus name is preserved so appended docs land in the same pages).
OcrDataset Prefix(const OcrDataset& d, size_t n) {
  OcrDataset p;
  p.corpus.name = d.corpus.name;
  p.corpus.num_pages = d.corpus.num_pages;
  p.corpus.lines.assign(d.corpus.lines.begin(), d.corpus.lines.begin() + n);
  p.corpus.page_of_line.assign(d.corpus.page_of_line.begin(),
                               d.corpus.page_of_line.begin() + n);
  p.sfas.assign(d.sfas.begin(), d.sfas.begin() + n);
  return p;
}

/// Mirrors what Load() derives for document i, so an Append()ed document
/// is indistinguishable from a bulk-loaded one.
DocumentInput InputFor(const OcrDataset& d, size_t i) {
  DocumentInput in;
  const uint32_t page = d.corpus.page_of_line[i];
  in.doc_name = StringPrintf("%s-page-%u", d.corpus.name.c_str(), page);
  in.year = 2010 + page;
  in.truth = d.corpus.lines[i];
  in.sfa = d.sfas[i];
  return in;
}

/// The WAL record Append logs for `in` as document `seq`, with the
/// SmallLoad() derivation knobs and `full_sfa` as its serialized SFA.
WalDocRecord RecordFor(const DocumentInput& in, uint64_t seq,
                       std::string full_sfa) {
  WalDocRecord rec;
  rec.seq = seq;
  rec.doc_name = in.doc_name;
  rec.year = in.year;
  rec.truth = in.truth;
  rec.kmap_k = SmallLoad().kmap_k;
  rec.staccato_m = SmallLoad().staccato.m;
  rec.staccato_k = SmallLoad().staccato.k;
  rec.full_sfa = std::move(full_sfa);
  return rec;
}

std::vector<Answer> RunQuery(StaccatoDb* db, Approach approach,
                             const std::string& pattern, IndexMode index_mode,
                             size_t threads, bool early_stop) {
  Session session(db, SessionOptions{threads, 50});
  QueryOptions q;
  q.pattern = pattern;
  q.num_ans = 50;
  q.index_mode = index_mode;
  q.eval_threads = threads;
  q.early_stop = early_stop;
  auto pq = session.Prepare(approach, q);
  EXPECT_TRUE(pq.ok()) << pq.status().ToString();
  auto ans = pq->Execute();
  EXPECT_TRUE(ans.ok()) << ans.status().ToString();
  return ans.ok() ? *ans : std::vector<Answer>{};
}

void ExpectSameAnswers(const std::vector<Answer>& want,
                       const std::vector<Answer>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].doc, got[i].doc) << what << " rank " << i;
    EXPECT_EQ(want[i].prob, got[i].prob)
        << what << " rank " << i << " (must be bit-identical)";
  }
}

/// Every pattern's answers under the Staccato and FullSFA approaches.
std::vector<std::vector<Answer>> AnswersOf(
    StaccatoDb* db, const std::vector<std::string>& patterns) {
  std::vector<std::vector<Answer>> out;
  for (Approach a : {Approach::kStaccato, Approach::kFullSfa}) {
    for (const std::string& pat : patterns) {
      out.push_back(RunQuery(db, a, pat, IndexMode::kNever, 1, true));
    }
  }
  return out;
}

void ExpectSameAnswerSets(const std::vector<std::vector<Answer>>& want,
                          const std::vector<std::vector<Answer>>& got,
                          const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectSameAnswers(want[i], got[i], what);
  }
}

/// Compares `subject` against `oracle` on every benchmark pattern for
/// the given approach, plus ground truth for one pattern.
void ExpectSameDb(StaccatoDb* oracle, StaccatoDb* subject, Approach approach,
                  IndexMode index_mode, size_t threads, bool early_stop,
                  const std::vector<std::string>& patterns) {
  ASSERT_EQ(oracle->NumSfas(), subject->NumSfas());
  for (const std::string& pat : patterns) {
    auto want = RunQuery(oracle, approach, pat, index_mode, threads,
                         early_stop);
    auto got = RunQuery(subject, approach, pat, index_mode, threads,
                        early_stop);
    ExpectSameAnswers(want, got, pat.c_str());
  }
  auto truth_want = oracle->GroundTruthFor(patterns[0]);
  auto truth_got = subject->GroundTruthFor(patterns[0]);
  ASSERT_TRUE(truth_want.ok());
  ASSERT_TRUE(truth_got.ok());
  EXPECT_EQ(*truth_want, *truth_got);
}

/// The planner's per-term statistics must agree term by term.
void ExpectSameTermStats(const StaccatoDb& oracle, const StaccatoDb& subject,
                         const char* what) {
  const TermStatsMap& want = oracle.term_stats();
  const TermStatsMap& got = subject.term_stats();
  ASSERT_FALSE(want.empty()) << what;
  EXPECT_EQ(want.size(), got.size()) << what;
  for (const auto& [term, st] : want) {
    const auto it = got.find(term);
    ASSERT_NE(it, got.end()) << what << ": no stats for '" << term << "'";
    EXPECT_EQ(st.postings, it->second.postings) << what << ": " << term;
    EXPECT_EQ(st.docs, it->second.docs) << what << ": " << term;
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = GenerateOcrDataset(SmallSpec(), Noise());
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    full_ = std::move(*data);
    total_ = full_.sfas.size();
    patterns_ = DatasetQueries(DatasetKind::kCongressActs);
    patterns_.resize(3);  // two keywords + one regex keep runtime sane
  }

  std::unique_ptr<StaccatoDb> OpenAt(const std::string& dir) {
    auto db = StaccatoDb::Open(dir);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  /// Bulk-loads the first `n` documents into a fresh directory.
  std::unique_ptr<StaccatoDb> Oracle(size_t n) {
    auto db = OpenAt(eval::MakeScratchDir("ingest_oracle"));
    Status s = db->Load(Prefix(full_, n), SmallLoad());
    EXPECT_TRUE(s.ok()) << s.ToString();
    return db;
  }

  Status AppendRange(StaccatoDb* db, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      STACCATO_RETURN_NOT_OK(db->Append(InputFor(full_, i)));
    }
    return Status::OK();
  }

  OcrDataset full_;
  size_t total_ = 0;
  std::vector<std::string> patterns_;
};

// Load checks that the dataset's vectors are parallel before it changes
// anything (the WAL reset, the epoch truncation): a refused Load leaves
// the previous load serving, with the same document count and answers.
TEST_F(IngestTest, LoadRejectsMismatchedDatasetAndKeepsServing) {
  const size_t n = total_ - 2;
  auto db = Oracle(n);
  const std::vector<Answer> before = RunQuery(
      db.get(), Approach::kStaccato, patterns_[0], IndexMode::kNever, 1, true);
  ASSERT_FALSE(before.empty());
  OcrDataset too_many_sfas = Prefix(full_, n);
  too_many_sfas.sfas.push_back(full_.sfas[n]);
  OcrDataset too_few_pages = Prefix(full_, n);
  too_few_pages.corpus.page_of_line.pop_back();
  for (const OcrDataset* bad : {&too_many_sfas, &too_few_pages}) {
    const Status st = db->Load(*bad, SmallLoad());
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_EQ(db->NumSfas(), n);
    ExpectSameAnswers(before,
                      RunQuery(db.get(), Approach::kStaccato, patterns_[0],
                               IndexMode::kNever, 1, true),
                      "after a refused Load");
  }
}

// The core differential property: Load(prefix) + Append(rest) must be
// bit-identical to Load(full), across the whole execution matrix.
TEST_F(IngestTest, AppendMatchesBulkLoad) {
  auto oracle = Oracle(total_);
  auto subject = OpenAt(eval::MakeScratchDir("ingest_subject"));
  ASSERT_TRUE(subject->Load(Prefix(full_, total_ / 2), SmallLoad()).ok());
  ASSERT_TRUE(AppendRange(subject.get(), total_ / 2, total_).ok());
  ASSERT_EQ(subject->DeltaDocs(), total_ - total_ / 2);

  // Full matrix on the paper's main approach...
  for (bool early_stop : {true, false}) {
    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
      ExpectSameDb(oracle.get(), subject.get(), Approach::kStaccato,
                   IndexMode::kNever, threads, early_stop, patterns_);
    }
  }
  // ...and one configuration each for the other approaches.
  for (Approach a : {Approach::kMap, Approach::kKMap, Approach::kFullSfa}) {
    ExpectSameDb(oracle.get(), subject.get(), a, IndexMode::kNever, 4, true,
                 patterns_);
  }
}

// Appending into a database whose inverted index predates the appends:
// delta postings are derived at Append time and probed identically.
TEST_F(IngestTest, AppendWithInvertedIndex) {
  std::vector<std::string> terms;
  for (const std::string& line : full_.corpus.lines) {
    size_t start = 0;
    for (size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ' ') {
        if (i - start >= 4) terms.push_back(line.substr(start, i - start));
        start = i + 1;
      }
    }
  }
  auto oracle = Oracle(total_);
  ASSERT_TRUE(oracle->BuildInvertedIndex(terms).ok());

  const std::string dir = eval::MakeScratchDir("ingest_subject_idx");
  auto subject = OpenAt(dir);
  ASSERT_TRUE(subject->Load(Prefix(full_, total_ / 2), SmallLoad()).ok());
  ASSERT_TRUE(subject->BuildInvertedIndex(terms).ok());
  ASSERT_TRUE(AppendRange(subject.get(), total_ / 2, total_).ok());

  ExpectSameDb(oracle.get(), subject.get(), Approach::kStaccato,
               IndexMode::kForce, 4, true, patterns_);
  // Rebuilding the index after the appends (delta postings recomputed
  // from the delta blobs) must agree too.
  ASSERT_TRUE(subject->BuildInvertedIndex(terms).ok());
  ExpectSameDb(oracle.get(), subject.get(), Approach::kStaccato,
               IndexMode::kForce, 4, true, patterns_);
  // Checkpoint folds the delta postings into the postings relation and
  // recomputes the statistics from it; OpenExisting recovers both from
  // the relation alone.
  ASSERT_TRUE(subject->Checkpoint().ok());
  ExpectSameTermStats(*oracle, *subject, "after Checkpoint");
  ExpectSameDb(oracle.get(), subject.get(), Approach::kStaccato,
               IndexMode::kForce, 4, true, patterns_);
  subject.reset();
  auto reopened = StaccatoDb::OpenExisting(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectSameTermStats(*oracle, **reopened, "after OpenExisting");
  ExpectSameDb(oracle.get(), reopened->get(), Approach::kStaccato,
               IndexMode::kForce, 4, true, patterns_);
}

// The dictionary is persisted beside the postings: a term that has no
// postings still anchors a kForce index probe after a reopen, with the
// same plan and answers, also after a Checkpoint wrote the next epoch. An
// index rebuild replaces the dictionary and a Load drops it: a reopen
// brings neither old dictionary back.
TEST_F(IngestTest, DictionarySurvivesOpenExisting) {
  const std::string dir = eval::MakeScratchDir("ingest_dictionary");
  // "zzzzq" occurs in no document, so no posting names it.
  std::vector<std::string> terms =
      BuildDictionaryFromCorpus(full_.corpus.lines);
  terms.push_back("zzzzq");
  auto plan_and_answers = [&](StaccatoDb* db) {
    Session session(db, SessionOptions{1, 50});
    QueryOptions q;
    q.pattern = "zzzzq";
    q.num_ans = 50;
    q.index_mode = IndexMode::kForce;
    auto pq = session.Prepare(Approach::kStaccato, q);
    EXPECT_TRUE(pq.ok()) << pq.status().ToString();
    if (!pq.ok()) return std::make_pair(std::string(), std::vector<Answer>());
    auto ans = pq->Execute();
    EXPECT_TRUE(ans.ok()) << ans.status().ToString();
    return std::make_pair(pq->Explain(),
                          ans.ok() ? *ans : std::vector<Answer>());
  };
  std::pair<std::string, std::vector<Answer>> want;
  {
    auto db = OpenAt(dir);
    ASSERT_TRUE(db->Load(Prefix(full_, total_ / 2), SmallLoad()).ok());
    std::vector<std::string> replaced = terms;
    replaced.back() = "qqqqx";
    ASSERT_TRUE(db->BuildInvertedIndex(replaced).ok());
    ASSERT_TRUE(db->BuildInvertedIndex(terms).ok());
    ASSERT_FALSE(db->term_stats().empty());
    ASSERT_EQ(db->term_stats().count("zzzzq"), 0u);
    want = plan_and_answers(db.get());
    EXPECT_NE(want.first.find("index-probe"), std::string::npos) << want.first;
  }
  // Reopen the index build's epoch, then the one a Checkpoint wrote.
  for (bool checkpoint : {false, true}) {
    auto reopened = StaccatoDb::OpenExisting(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    const auto got = plan_and_answers(reopened->get());
    EXPECT_EQ(got.first, want.first) << "checkpoint=" << checkpoint;
    ExpectSameAnswers(want.second, got.second, "after OpenExisting");
    EXPECT_EQ((*reopened)->dictionary()->Find("qqqqx"), kInvalidTerm);
    if (!checkpoint) {
      ASSERT_TRUE(
          AppendRange(reopened->get(), total_ / 2, total_ / 2 + 2).ok());
      ASSERT_TRUE((*reopened)->Checkpoint().ok());
      want = plan_and_answers(reopened->get());
    }
  }
  {
    auto reopened = StaccatoDb::OpenExisting(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_TRUE((*reopened)->Load(Prefix(full_, total_ / 2), SmallLoad()).ok());
  }
  auto reloaded = StaccatoDb::OpenExisting(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->dictionary(), nullptr);
}

// The checkpointed epoch is the bulk-loaded one, file for file: each base
// relation and the blob file of Load(prefix) + Append(rest) + Checkpoint
// equals, byte for byte, what Load(full) writes (pages are zero-filled).
// Answers alone would not show it: no query reads StaccatoData rows.
TEST_F(IngestTest, CheckpointedEpochMatchesBulkLoad) {
  const std::string want_dir = eval::MakeScratchDir("ingest_files_oracle");
  const std::string got_dir = eval::MakeScratchDir("ingest_files_subject");
  {
    auto oracle = OpenAt(want_dir);
    ASSERT_TRUE(oracle->Load(full_, SmallLoad()).ok());
    auto subject = OpenAt(got_dir);
    ASSERT_TRUE(subject->Load(Prefix(full_, total_ / 2), SmallLoad()).ok());
    ASSERT_TRUE(AppendRange(subject.get(), total_ / 2, total_).ok());
    ASSERT_TRUE(subject->Checkpoint().ok());
    ASSERT_EQ(subject->Epoch(), 1u);
  }  // closing flushes every file
  const std::vector<std::pair<std::string, std::string>> files = {
      {"master.tbl", "master.1.tbl"},
      {"truth.tbl", "truth.1.tbl"},
      {"kmap.tbl", "kmap.1.tbl"},
      {"fullsfa.tbl", "fullsfa.1.tbl"},
      {"staccato.tbl", "staccato.1.tbl"},
      {"staccato_graph.tbl", "staccato_graph.1.tbl"},
      {"blobs.dat", "blobs.1.dat"}};
  for (const auto& [want_file, got_file] : files) {
    const std::string want = FileBytes(want_dir + "/" + want_file);
    const std::string got = FileBytes(got_dir + "/" + got_file);
    EXPECT_FALSE(want.empty()) << want_file;
    EXPECT_TRUE(want == got) << got_file << " (" << got.size()
                             << " bytes) differs from " << want_file << " ("
                             << want.size() << " bytes)";
  }
}

// Random interleavings of Append and Checkpoint, compared against a
// bulk-loaded oracle of the same prefix at several cut points.
TEST_F(IngestTest, RandomInterleavingMatchesRebuild) {
  std::mt19937 rng(20260808);
  auto subject = OpenAt(eval::MakeScratchDir("ingest_interleave"));
  const size_t base = 4;
  ASSERT_TRUE(subject->Load(Prefix(full_, base), SmallLoad()).ok());

  size_t next = base;
  while (next < total_) {
    const size_t burst =
        std::min<size_t>(1 + rng() % 4, total_ - next);
    ASSERT_TRUE(AppendRange(subject.get(), next, next + burst).ok());
    next += burst;
    if (rng() % 3 == 0) {
      ASSERT_TRUE(subject->Checkpoint().ok());
      ASSERT_EQ(subject->DeltaDocs(), 0u);
    }
    if (rng() % 2 == 0) {
      auto oracle = Oracle(next);
      ExpectSameDb(oracle.get(), subject.get(), Approach::kStaccato,
                   IndexMode::kNever, 4, true, patterns_);
    }
  }
  auto oracle = Oracle(total_);
  ExpectSameDb(oracle.get(), subject.get(), Approach::kStaccato,
               IndexMode::kNever, 1, false, patterns_);
}

// Close without checkpointing: reopening replays the WAL and the delta
// generation is reconstructed bit-identically.
TEST_F(IngestTest, ReopenReplaysWal) {
  const std::string dir = eval::MakeScratchDir("ingest_reopen");
  {
    auto subject = OpenAt(dir);
    ASSERT_TRUE(subject->Load(Prefix(full_, total_ / 2), SmallLoad()).ok());
    ASSERT_TRUE(AppendRange(subject.get(), total_ / 2, total_).ok());
  }  // destructor: no checkpoint, the WAL is the only record of the delta

  auto reopened = StaccatoDb::OpenExisting(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->DeltaDocs(), total_ - total_ / 2);
  auto oracle = Oracle(total_);
  ExpectSameDb(oracle.get(), reopened->get(), Approach::kStaccato,
               IndexMode::kNever, 4, true, patterns_);
}

// Checkpoint then reopen: the delta was folded into a fresh epoch whose
// meta commit carries the load parameters, so the reopened base answers
// identically and further appends derive with the same knobs.
TEST_F(IngestTest, CheckpointPersistsAcrossReopen) {
  const std::string dir = eval::MakeScratchDir("ingest_ckpt");
  {
    auto subject = OpenAt(dir);
    ASSERT_TRUE(subject->Load(Prefix(full_, total_ - 2), SmallLoad()).ok());
    ASSERT_TRUE(AppendRange(subject.get(), total_ - 2, total_ - 1).ok());
    ASSERT_TRUE(subject->Checkpoint().ok());
    EXPECT_EQ(subject->Epoch(), 1u);
    EXPECT_EQ(subject->DeltaDocs(), 0u);
  }
  auto reopened = StaccatoDb::OpenExisting(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Epoch(), 1u);
  EXPECT_EQ((*reopened)->NumSfas(), total_ - 1);
  // Appends after reopen must use the meta-preserved LoadOptions.
  ASSERT_TRUE(AppendRange(reopened->get(), total_ - 1, total_).ok());
  auto oracle = Oracle(total_);
  ExpectSameDb(oracle.get(), reopened->get(), Approach::kStaccato,
               IndexMode::kNever, 4, true, patterns_);
}

// A torn WAL tail (crash mid-write) is discarded on reopen: whatever
// committed prefix survives answers identically to a bulk load of
// exactly that many documents.
TEST_F(IngestTest, TornWalTailRecoversCommittedPrefix) {
  const std::string dir = eval::MakeScratchDir("ingest_torn");
  const size_t base = total_ / 2;
  {
    auto subject = OpenAt(dir);
    ASSERT_TRUE(subject->Load(Prefix(full_, base), SmallLoad()).ok());
    ASSERT_TRUE(AppendRange(subject.get(), base, total_).ok());
  }

  // Chop one byte off the log: the last frame is torn, so the
  // last append must vanish while every earlier one survives.
  const std::string wal = WalPath(dir);
  FILE* f = fopen(wal.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, 0, SEEK_END), 0);
  const long size = ftell(f);
  ASSERT_GT(size, 1);
  ASSERT_EQ(ftruncate(fileno(f), size - 1), 0);
  fclose(f);

  auto reopened = StaccatoDb::OpenExisting(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->NumSfas(), total_ - 1);
  {
    auto oracle = Oracle(total_ - 1);
    ExpectSameDb(oracle.get(), reopened->get(), Approach::kStaccato,
                 IndexMode::kNever, 4, true, patterns_);
  }

  // More aggressive crash: keep only 40% of the log. The recovered count
  // n' is some committed prefix in [base, total], and the database must
  // be bit-identical to a bulk load of exactly n' documents.
  reopened->reset();
  f = fopen(wal.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fseek(f, 0, SEEK_END), 0);
  const long size2 = ftell(f);
  ASSERT_EQ(ftruncate(fileno(f), size2 * 2 / 5), 0);
  fclose(f);

  reopened = StaccatoDb::OpenExisting(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const size_t recovered = (*reopened)->NumSfas();
  EXPECT_GE(recovered, base);
  EXPECT_LE(recovered, total_);
  auto oracle = Oracle(recovered);
  ExpectSameDb(oracle.get(), reopened->get(), Approach::kStaccato,
               IndexMode::kNever, 4, true, patterns_);
}

// A log written before the SFA blob format changed cannot be replayed:
// reopening fails with a Corruption that names the retired format and
// says to reload, rather than serving a document it cannot read.
TEST_F(IngestTest, RetiredSfaFormatInWalFailsOpen) {
  const size_t base = total_ - 1;
  // Loads `base` documents, then commits the last one by hand with
  // `full_sfa` as its serialized SFA, and reopens.
  auto reopen_with = [&](const std::string& full_sfa)
      -> Result<std::unique_ptr<StaccatoDb>> {
    const std::string dir = eval::MakeScratchDir("ingest_sfa_format");
    STACCATO_RETURN_NOT_OK(OpenAt(dir)->Load(Prefix(full_, base), SmallLoad()));
    {
      STACCATO_ASSIGN_OR_RETURN(
          std::unique_ptr<WalWriter> wal,
          WalWriter::Open(WalPath(dir), 0, WalSyncPolicy::kNever));
      STACCATO_RETURN_NOT_OK(wal->Append(
          EncodeWalDoc(RecordFor(InputFor(full_, base), base, full_sfa))));
    }
    return StaccatoDb::OpenExisting(dir);
  };

  // Control: the hand-written record replays in the current format.
  auto current = reopen_with(full_.sfas[base].Serialize());
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ((*current)->NumSfas(), total_);

  // The same record with its SFA in the SFA1 layout.
  BinaryWriter sfa1;
  sfa1.PutU32(0x53464131);  // "SFA1"
  for (uint64_t v : {2, 0, 1, 1, 0, 1, 1}) sfa1.PutVarint(v);
  sfa1.PutString("a");
  sfa1.PutDouble(1.0);
  auto retired = reopen_with(sfa1.Release());
  ASSERT_FALSE(retired.ok());
  EXPECT_TRUE(retired.status().IsCorruption()) << retired.status().ToString();
  EXPECT_NE(retired.status().message().find("SFA1"), std::string::npos)
      << retired.status().ToString();
  EXPECT_NE(retired.status().message().find("reload"), std::string::npos)
      << retired.status().ToString();
}

// A log written in the retired block-framed format is refused, not read
// as torn. Its first record is one FULL fragment: the crc32 of the type
// byte plus the payload, a u16 length, type byte 1, then the payload.
// OpenExisting returns a Corruption that says to reload and leaves the
// log byte for byte as it was; read as frames, the log would look torn at
// offset 0 and the writer would truncate the append away.
TEST_F(IngestTest, RetiredWalFormatFailsOpen) {
  const std::string dir = eval::MakeScratchDir("ingest_wal_format");
  const size_t base = total_ - 1;
  ASSERT_TRUE(OpenAt(dir)->Load(Prefix(full_, base), SmallLoad()).ok());
  const DocumentInput in = InputFor(full_, base);
  const std::string payload =
      EncodeWalDoc(RecordFor(in, base, in.sfa.Serialize()));
  ASSERT_LE(payload.size(), 32768u - 7u) << "must fit one FULL fragment";
  const char kFullType = 1;
  BinaryWriter fragment;
  fragment.PutU32(util::Crc32(std::string(1, kFullType) + payload));
  fragment.PutU8(static_cast<uint8_t>(payload.size() & 0xFF));
  fragment.PutU8(static_cast<uint8_t>(payload.size() >> 8));
  fragment.PutU8(kFullType);
  fragment.PutRaw(payload.data(), payload.size());
  const std::string log = fragment.Release();
  {
    std::ofstream out(WalPath(dir), std::ios::binary | std::ios::trunc);
    out.write(log.data(), static_cast<std::streamsize>(log.size()));
    ASSERT_TRUE(out.good());
  }

  auto retired = StaccatoDb::OpenExisting(dir);
  ASSERT_FALSE(retired.ok());
  EXPECT_TRUE(retired.status().IsCorruption()) << retired.status().ToString();
  EXPECT_NE(retired.status().message().find("reload"), std::string::npos)
      << retired.status().ToString();
  EXPECT_TRUE(FileBytes(WalPath(dir)) == log) << "the log was modified";
}

// A failed Append leaves nothing in the log. Whether the WAL's fsync, its
// flush (STACCATO_WAL_SYNC=never) or its write fails, the live database
// never serves document A, so the next Append gives B the same id; a
// reopened database must hold B at that id and answer exactly as the live
// one did before close.
TEST_F(IngestTest, FailedAppendLeavesNothingToReplay) {
  struct Case {
    const char* name;
    util::FaultOp op;
    size_t short_bytes;
    bool sync_never;
  };
  const Case cases[] = {
      {"fsync", util::FaultOp::kSync, 0, false},
      {"flush under never", util::FaultOp::kFlush, 0, true},
      {"short write", util::FaultOp::kWrite, 5, false},
  };
  const size_t base = total_ / 2;
  const DocumentInput a = InputFor(full_, base);
  const DocumentInput b = InputFor(full_, base + 1);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = eval::MakeScratchDir("ingest_failed_append");
    std::vector<std::vector<Answer>> live;
    {
      if (c.sync_never) setenv("STACCATO_WAL_SYNC", "never", 1);
      auto db = OpenAt(dir);
      unsetenv("STACCATO_WAL_SYNC");
      ASSERT_TRUE(db->Load(Prefix(full_, base), SmallLoad()).ok());
      util::FaultRule fault;
      fault.op = c.op;
      fault.path_substr = WalPath(dir);
      fault.short_bytes = c.short_bytes;
      util::FaultInjector::Global()->Install(fault);
      EXPECT_FALSE(db->Append(a).ok());
      util::FaultInjector::Global()->Clear();
      ASSERT_EQ(db->NumSfas(), base);
      ASSERT_TRUE(db->Append(b).ok());
      ASSERT_EQ(db->NumSfas(), base + 1);
      live = AnswersOf(db.get(), patterns_);
    }
    auto reopened = StaccatoDb::OpenExisting(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->NumSfas(), base + 1);
    auto blob = (*reopened)->ReadFullSfaBlob(base);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    EXPECT_TRUE(*blob == b.sfa.Serialize())
        << "document " << base << " is not B";
    ExpectSameAnswerSets(live, AnswersOf(reopened->get(), patterns_),
                         "after reopen");
  }
}

// A document that cannot be derived (an SFA with no nodes) is refused
// before it reaches the log: the document count and the log's size are
// unchanged, the next Append succeeds, and the database reopens with the
// live count.
TEST_F(IngestTest, UnderivableAppendLeavesLogUntouched) {
  const std::string dir = eval::MakeScratchDir("ingest_underivable");
  const size_t base = total_ / 2;
  {
    auto db = OpenAt(dir);
    ASSERT_TRUE(db->Load(Prefix(full_, base), SmallLoad()).ok());
    ASSERT_TRUE(db->Append(InputFor(full_, base)).ok());
    const size_t log_size = FileBytes(WalPath(dir)).size();
    ASSERT_GT(log_size, 0u);
    DocumentInput bad = InputFor(full_, base + 1);
    bad.sfa = Sfa();
    EXPECT_FALSE(db->Append(bad).ok());
    EXPECT_EQ(db->NumSfas(), base + 1);
    EXPECT_EQ(FileBytes(WalPath(dir)).size(), log_size);
    ASSERT_TRUE(db->Append(InputFor(full_, base + 1)).ok());
    ASSERT_EQ(db->NumSfas(), base + 2);
  }
  auto reopened = StaccatoDb::OpenExisting(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->NumSfas(), base + 2);
  auto oracle = Oracle(base + 2);
  ExpectSameDb(oracle.get(), reopened->get(), Approach::kStaccato,
               IndexMode::kNever, 1, true, patterns_);
}

// A directory written before the SFA blob format changed carries the
// retired STACMET1 meta magic. OpenExisting refuses it up front, naming
// the format and saying to reload, so no query, index build or
// Checkpoint ever meets an SFA1 blob.
TEST_F(IngestTest, RetiredMetaFormatFailsOpen) {
  const std::string dir = eval::MakeScratchDir("ingest_meta_format");
  ASSERT_TRUE(OpenAt(dir)->Load(Prefix(full_, 2), SmallLoad()).ok());
  auto current = StaccatoDb::OpenExisting(dir);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  current->reset();

  // The older build wrote the same meta layout under the old magic.
  FILE* f = fopen((dir + "/staccato.meta").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fwrite("STACMET1", 1, 8, f), 8u);
  ASSERT_EQ(fclose(f), 0);
  auto retired = StaccatoDb::OpenExisting(dir);
  ASSERT_FALSE(retired.ok());
  EXPECT_TRUE(retired.status().IsCorruption()) << retired.status().ToString();
  EXPECT_NE(retired.status().message().find("SFA1"), std::string::npos)
      << retired.status().ToString();
  EXPECT_NE(retired.status().message().find("reload"), std::string::npos)
      << retired.status().ToString();
}

// The sync policy changes durability, never answers.
TEST_F(IngestTest, SyncNeverPolicyAnswersIdentically) {
  setenv("STACCATO_WAL_SYNC", "never", 1);
  auto subject = OpenAt(eval::MakeScratchDir("ingest_syncnever"));
  unsetenv("STACCATO_WAL_SYNC");
  ASSERT_TRUE(subject->Load(Prefix(full_, total_ / 2), SmallLoad()).ok());
  ASSERT_TRUE(AppendRange(subject.get(), total_ / 2, total_).ok());
  auto oracle = Oracle(total_);
  ExpectSameDb(oracle.get(), subject.get(), Approach::kStaccato,
               IndexMode::kNever, 1, true, patterns_);
}

// Appends racing query execution (run under TSan in CI): queries see a
// consistent snapshot — some prefix of the appends — and the final state
// matches the oracle.
TEST_F(IngestTest, ConcurrentAppendAndExecute) {
  auto subject = OpenAt(eval::MakeScratchDir("ingest_race"));
  const size_t base = total_ / 2;
  ASSERT_TRUE(subject->Load(Prefix(full_, base), SmallLoad()).ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  StaccatoDb* db = subject.get();
  const std::string pattern = patterns_[0];

  // Append only: Checkpoint swaps the storage handles a PlanContext
  // snapshot points at, so it requires quiesced execution (see the
  // Checkpoint doc comment); Append is the operation advertised as safe
  // against concurrent queries.
  std::thread appender([&] {
    for (size_t i = base; i < total_; ++i) {
      if (!db->Append(InputFor(full_, i)).ok()) failures.fetch_add(1);
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        Session session(db, SessionOptions{2, 50});
        QueryOptions q;
        q.pattern = pattern;
        q.num_ans = 50;
        q.eval_threads = 2;
        auto pq = session.Prepare(Approach::kStaccato, q);
        if (!pq.ok()) {
          failures.fetch_add(1);
          break;
        }
        auto ans = pq->Execute();
        if (!ans.ok()) {
          failures.fetch_add(1);
          break;
        }
      }
    });
  }
  appender.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);

  auto oracle = Oracle(total_);
  ExpectSameDb(oracle.get(), subject.get(), Approach::kStaccato,
               IndexMode::kNever, 4, true, patterns_);
}

// Probabilistic fault soak (opt-in: STACCATO_FAULT_SOAK=1, run by the CI
// fault-soak job). Appends race a flaky disk — every WAL write, flush,
// and fsync fails independently with 10% probability — and the invariant
// is the crash-safety contract, not any particular success count: each
// Append either succeeds or fails cleanly with a Status and leaves
// nothing in the log, the database stays queryable throughout, and after
// the disk heals a reopen recovers exactly the reported successes — the
// live count — and answers exactly as the live database did.
TEST_F(IngestTest, FaultSoakAppendsSurviveFlakyDisk) {
  const char* soak = std::getenv("STACCATO_FAULT_SOAK");
  if (soak == nullptr || std::string(soak) != "1") {
    GTEST_SKIP() << "set STACCATO_FAULT_SOAK=1 to run the fault soak";
  }
  const std::string dir = eval::MakeScratchDir("ingest_soak");
  const size_t base = total_ / 2;
  size_t successes = 0;
  size_t live_count = 0;
  std::vector<std::vector<Answer>> live;
  {
    auto subject = OpenAt(dir);
    ASSERT_TRUE(subject->Load(Prefix(full_, base), SmallLoad()).ok());

    util::FaultInjector::Global()->Seed(20260808);
    for (util::FaultOp op :
         {util::FaultOp::kWrite, util::FaultOp::kFlush, util::FaultOp::kSync}) {
      util::FaultRule flaky;
      flaky.op = op;
      flaky.path_substr = WalPath(dir);
      flaky.probability = 0.1;
      util::FaultInjector::Global()->Install(flaky);
    }

    for (size_t i = base; i < total_; ++i) {
      if (subject->Append(InputFor(full_, i)).ok()) ++successes;
      // The database answers queries between flaky appends; answers are
      // well-formed (prob-ranked, no crash) whatever the disk did.
      if ((i - base) % 4 == 0) {
        auto ans = RunQuery(subject.get(), Approach::kStaccato, patterns_[0],
                            IndexMode::kNever, 2, true);
        for (size_t r = 1; r < ans.size(); ++r) {
          ASSERT_LE(ans[r].prob, ans[r - 1].prob) << "unranked answer";
        }
      }
    }
    util::FaultInjector::Global()->Clear();
    live_count = subject->NumSfas();
    live = AnswersOf(subject.get(), patterns_);
  }  // close without checkpoint: recovery comes from the surviving WAL

  auto reopened = StaccatoDb::OpenExisting(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->NumSfas(), base + successes);
  EXPECT_EQ((*reopened)->NumSfas(), live_count);
  ExpectSameAnswerSets(live, AnswersOf(reopened->get(), patterns_),
                       "after reopen");
}

}  // namespace
}  // namespace rdbms
}  // namespace staccato
