// The strings path (MAP and k-MAP) scans kMAPData's record bytes and
// decodes each row in place (rdbms/kmap_row.h). These tests pin it to a
// reference summed from the tuple Scan of kMAPData in stored order, check
// that a corrupt row still fails a query even when the filter drops its
// document, and that a deadline cut mid-scan keeps a clean doc prefix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "eval/workbench.h"
#include "ocr/corpus.h"
#include "ocr/generator.h"
#include "rdbms/heap_table.h"
#include "rdbms/kmap_row.h"
#include "rdbms/page.h"
#include "rdbms/service.h"
#include "rdbms/session.h"
#include "rdbms/staccato_db.h"
#include "util/random.h"
#include "util/serde.h"
#include "util/strings.h"

namespace staccato {
namespace rdbms {
namespace {

// ---- DecodeKMapRow ----------------------------------------------------------

std::string Encode(const Tuple& t) {
  BinaryWriter w;
  KMapSchema().EncodeTuple(t, &w);
  return w.Release();
}

bool TupleDecodes(const std::string& rec) {
  BinaryReader r(rec.data(), rec.size());
  return KMapSchema().DecodeTuple(&r).ok();
}

Status DecodeStatus(const std::string& rec) {
  auto row = DecodeKMapRow(rec);
  EXPECT_EQ(row.ok(), TupleDecodes(rec)) << "decoders disagree";
  return row.ok() ? Status::OK() : row.status();
}

/// The fixed (key, rank) prefix of a row, then `tail` as the rest.
std::string WithTail(const std::string& tail) {
  return Encode(KMapTuple(7, 3, "", 0.0)).substr(0, 16) + tail;
}

std::string Varint(uint64_t v) {
  BinaryWriter w;
  w.PutVarint(v);
  return w.Release();
}

TEST(KMapRowTest, DecodesWhatTheSchemaEncodes) {
  for (const std::string& s :
       {std::string(), std::string("Public Law 89"), std::string(127, 'x'),
        std::string(128, 'y'), std::string(300, 'z')}) {
    for (int64_t key : {int64_t{0}, int64_t{41}, int64_t{-5}}) {
      const double log_prob = -0.125 * static_cast<double>(s.size() + 1);
      const std::string rec = Encode(KMapTuple(key, 2, s, log_prob));
      for (const std::string& stored : {rec, rec + "trailing"}) {
        auto row = DecodeKMapRow(stored);
        ASSERT_TRUE(row.ok()) << row.status().ToString();
        EXPECT_TRUE(TupleDecodes(stored));
        EXPECT_EQ(row->key, key);
        EXPECT_EQ(row->rank, 2);
        EXPECT_EQ(row->data, s);
        EXPECT_EQ(std::memcmp(&row->log_prob, &log_prob, sizeof(double)), 0);
      }
    }
  }
}

TEST(KMapRowTest, CorruptFramingIsCorruption) {
  const std::string good = Encode(KMapTuple(7, 3, "Public Law 89", -0.25));
  // Truncated: every proper prefix of a good row.
  for (size_t n = 0; n < good.size(); ++n) {
    EXPECT_TRUE(DecodeStatus(good.substr(0, n)).IsCorruption()) << n;
  }
  // Overlong varint: ten continuation bytes, with plenty of bytes after.
  EXPECT_TRUE(
      DecodeStatus(WithTail(std::string(10, '\x80') + std::string(20, 'a')))
          .IsCorruption());
  // A length one past the record (the string would swallow the LogProb),
  // and one that leaves no room for it.
  const std::string body(12, 'b');
  EXPECT_TRUE(DecodeStatus(WithTail(Varint(body.size() + 9) + body +
                                    std::string(8, '\0')))
                  .IsCorruption());
  EXPECT_TRUE(DecodeStatus(WithTail(Varint(body.size() + 1) + body +
                                    std::string(8, '\0')))
                  .IsCorruption());
  EXPECT_TRUE(DecodeStatus(WithTail(Varint(body.size()) + body +
                                    std::string(8, '\0')))
                  .ok());
  // Lengths near 2^64: an offset computed as position + length would wrap
  // back inside the record.
  for (uint64_t len : {~uint64_t{0}, ~uint64_t{0} - 7, ~uint64_t{0} - 16,
                       uint64_t{1} << 63}) {
    EXPECT_TRUE(DecodeStatus(WithTail(Varint(len) + std::string(40, 'c')))
                    .IsCorruption())
        << len;
  }
}

// Random single-byte corruptions and truncations: the in-place decoder
// accepts exactly what DecodeTuple accepts, with the same fields.
TEST(KMapRowTest, AgreesWithDecodeTupleOnMutations) {
  Rng rng(2026);
  const std::string good = Encode(KMapTuple(12, 0, "Commission act", -1.5));
  for (int trial = 0; trial < 4000; ++trial) {
    std::string rec = good;
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(rec.size()) - 1));
    rec[at] = static_cast<char>(rng.UniformInt(0, 255));
    if (trial % 3 == 0) {
      rec.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(rec.size()))));
    }
    auto row = DecodeKMapRow(rec);
    BinaryReader r(rec.data(), rec.size());
    auto t = KMapSchema().DecodeTuple(&r);
    ASSERT_EQ(row.ok(), t.ok()) << "trial " << trial;
    if (!row.ok()) {
      EXPECT_TRUE(row.status().IsCorruption());
      continue;
    }
    EXPECT_EQ(row->key, (*t)[0].AsInt());
    EXPECT_EQ(row->rank, (*t)[1].AsInt());
    EXPECT_EQ(row->data, (*t)[2].AsString());
    const double lp = (*t)[3].AsDouble();
    EXPECT_EQ(std::memcmp(&row->log_prob, &lp, sizeof(double)), 0);
  }
}

// ---- The strings scan against a tuple-Scan reference ------------------------

CorpusSpec SmallCorpus() {
  CorpusSpec spec;
  spec.kind = DatasetKind::kCongressActs;
  spec.num_pages = 3;
  spec.lines_per_page = 12;
  spec.max_line_chars = 40;
  spec.seed = 9090;
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

/// The first `n` documents of `d` as a dataset of their own.
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

std::string DocName(const OcrDataset& d, size_t doc) {
  return StringPrintf("%s-page-%u", d.corpus.name.c_str(),
                      d.corpus.page_of_line[doc]);
}

int64_t Year(const OcrDataset& d, size_t doc) {
  return 2010 + static_cast<int64_t>(d.corpus.page_of_line[doc]);
}

/// An equality filter as QueryOptions takes it, plus the same predicate
/// evaluated from the dataset for the reference.
struct Filter {
  std::string name;
  std::vector<EqualityPredicate> equalities;
  std::function<bool(size_t)> pass;
};

std::vector<Filter> Filters(const OcrDataset& d) {
  return {
      {"no filter", {}, [](size_t) { return true; }},
      {"Year = 2011",
       {{"Year", "2011"}},
       [&d](size_t doc) { return Year(d, doc) == 2011; }},
      {"DocName = page 2",
       {{"DocName", DocName(d, d.sfas.size() - 1)}},
       [&d](size_t doc) {
         return DocName(d, doc) == DocName(d, d.sfas.size() - 1);
       }},
  };
}

/// The kMAPData heap file of a database loaded into `dir` (epoch 0).
std::string KMapFile(const std::string& dir) { return dir + "/kmap.tbl"; }

/// Per-doc match mass summed from the tuple Scan of the kMAPData table of
/// the database in `dir`, in stored order: the strings approaches'
/// definition, written out.
std::map<DocId, double> ReferenceMass(const std::string& dir, size_t docs,
                                      Approach approach,
                                      const std::string& pattern,
                                      const std::function<bool(size_t)>& pass) {
  auto dfa = Dfa::Compile(pattern, MatchMode::kContains);
  EXPECT_TRUE(dfa.ok());
  auto kmap = HeapTable::Open(KMapFile(dir), KMapSchema());
  EXPECT_TRUE(kmap.ok()) << kmap.status().ToString();
  std::vector<double> prob(docs, 0.0);
  Status st = (*kmap)->Scan(
      [&](RecordId, const Tuple& t) {
        const size_t key = static_cast<size_t>(t[0].AsInt());
        if (key >= prob.size() || !pass(key)) return true;
        if (approach == Approach::kMap && t[1].AsInt() != 0) return true;
        if (dfa->Matches(t[2].AsString())) {
          prob[key] += std::exp(t[3].AsDouble());
        }
        return true;
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::map<DocId, double> mass;
  for (size_t i = 0; i < prob.size(); ++i) {
    if (prob[i] > 0.0) mass[i] = std::min(prob[i], 1.0);
  }
  return mass;
}

QueryOptions AllAnswers(const std::string& pattern,
                        const std::vector<EqualityPredicate>& equalities) {
  QueryOptions q;
  q.pattern = pattern;
  q.num_ans = 1000;  // more than any corpus here: the whole answer set
  q.equalities = equalities;
  return q;
}

std::map<DocId, double> AsMap(const std::vector<Answer>& answers) {
  std::map<DocId, double> m;
  for (const Answer& a : answers) m[a.doc] = a.prob;
  return m;
}

void ExpectSameMass(const std::map<DocId, double>& want,
                    const std::map<DocId, double>& got,
                    const std::string& what) {
  EXPECT_EQ(want.size(), got.size()) << what;
  for (const auto& [doc, prob] : want) {
    auto it = got.find(doc);
    ASSERT_NE(it, got.end()) << what << ": doc " << doc << " missing";
    EXPECT_EQ(std::memcmp(&it->second, &prob, sizeof(double)), 0)
        << what << ": doc " << doc << " " << it->second << " vs " << prob
        << " (must be bit-identical)";
  }
}

class StringsScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto data = GenerateOcrDataset(SmallCorpus(), Noise());
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    dataset_ = new OcrDataset(std::move(*data));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static std::unique_ptr<StaccatoDb> LoadInto(const std::string& dir,
                                              const OcrDataset& data) {
    auto db = StaccatoDb::Open(dir);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    Status s = (*db)->Load(data, SmallLoad());
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::move(*db);
  }

  static OcrDataset* dataset_;
};

OcrDataset* StringsScanTest::dataset_ = nullptr;

TEST_F(StringsScanTest, AnswersEqualTupleScanReference) {
  const std::string dir = eval::MakeScratchDir("strings_ref");
  auto db = LoadInto(dir, *dataset_);
  Session session(db.get());
  for (Approach approach : {Approach::kMap, Approach::kKMap}) {
    for (const Filter& f : Filters(*dataset_)) {
      size_t answers = 0;
      for (const std::string& pat :
           DatasetQueries(DatasetKind::kCongressActs)) {
        const std::string what = StringPrintf(
            "%s, %s, '%s'", ApproachName(approach), f.name.c_str(),
            pat.c_str());
        auto pq = session.Prepare(approach, AllAnswers(pat, f.equalities));
        ASSERT_TRUE(pq.ok()) << what << ": " << pq.status().ToString();
        // Cold (filter bitmap built) and warm (served from the plan cache).
        for (int run = 0; run < 2; ++run) {
          auto got = pq->Execute();
          ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
          ExpectSameMass(
              ReferenceMass(dir, db->NumSfas(), approach, pat, f.pass),
              AsMap(*got), what);
          answers += got->size();
        }
      }
      EXPECT_GT(answers, 0u) << ApproachName(approach) << ", " << f.name;
    }
  }
}

// Delta documents score through the same row rule: Load(prefix) +
// Append(rest) answers bit-identically to the tuple-Scan reference of a
// database bulk-loaded with every document.
TEST_F(StringsScanTest, DeltaDocumentsEqualTupleScanReference) {
  const OcrDataset& d = *dataset_;
  const std::string full_dir = eval::MakeScratchDir("strings_full");
  LoadInto(full_dir, d).reset();
  const size_t half = d.sfas.size() / 2;
  auto grown = LoadInto(eval::MakeScratchDir("strings_delta"), Prefix(d, half));
  for (size_t i = half; i < d.sfas.size(); ++i) {
    DocumentInput in;
    in.doc_name = DocName(d, i);
    in.year = Year(d, i);
    in.truth = d.corpus.lines[i];
    in.sfa = d.sfas[i];
    ASSERT_TRUE(grown->Append(in).ok());
  }
  Session session(grown.get());
  for (Approach approach : {Approach::kMap, Approach::kKMap}) {
    for (const Filter& f : Filters(d)) {
      size_t delta_answers = 0;  // answers among the appended documents
      for (const std::string& pat :
           DatasetQueries(DatasetKind::kCongressActs)) {
        const std::string what = StringPrintf(
            "delta %s, %s, '%s'", ApproachName(approach), f.name.c_str(),
            pat.c_str());
        auto pq = session.Prepare(approach, AllAnswers(pat, f.equalities));
        ASSERT_TRUE(pq.ok()) << what << ": " << pq.status().ToString();
        auto got = pq->Execute();
        ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
        ExpectSameMass(
            ReferenceMass(full_dir, d.sfas.size(), approach, pat, f.pass),
            AsMap(*got), what);
        for (const Answer& a : *got) delta_answers += a.doc >= half ? 1 : 0;
      }
      EXPECT_GT(delta_answers, 0u) << ApproachName(approach) << ", " << f.name;
    }
  }
}

// ---- Corrupt rows on disk ---------------------------------------------------

/// Rewrites page 0 of `path` through `edit`, which gets the page and the
/// byte offset of slot 0's record.
using Edit = std::function<void(SlottedPage*, size_t)>;

void EditFirstRow(const std::string& path, const Edit& edit) {
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  SlottedPage page;
  ASSERT_EQ(fread(page.raw(), 1, kPageSize, f), kPageSize);
  auto rec = page.Get(0);
  ASSERT_TRUE(rec.ok());
  auto row = DecodeKMapRow(*rec);
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->key, 0);  // doc 0: page 0, Year 2010
  ASSERT_GE(row->data.size(), 1u);
  edit(&page, static_cast<size_t>(rec->data() - page.raw()));
  ASSERT_EQ(fseek(f, 0, SEEK_SET), 0);
  ASSERT_EQ(fwrite(page.raw(), 1, kPageSize, f), kPageSize);
  ASSERT_EQ(fclose(f), 0);
}

// The four framing faults, each in a row of doc 0, fail every MAP and
// k-MAP query with Corruption — also one whose Year filter drops doc 0 —
// as the tuple Scan fails on them.
TEST_F(StringsScanTest, CorruptRowFailsQueryEvenWhenFilteredOut) {
  const std::string dir = eval::MakeScratchDir("strings_corrupt");
  LoadInto(dir, *dataset_).reset();
  const std::string kmap_file = KMapFile(dir);
  std::string pristine;
  {
    FILE* f = fopen(kmap_file.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    pristine.resize(kPageSize);
    ASSERT_EQ(fread(pristine.data(), 1, kPageSize, f), kPageSize);
    fclose(f);
  }
  const std::vector<std::pair<std::string, Edit>> faults = {
      {"truncated row",
       [](SlottedPage* p, size_t) {
         const uint16_t len = 12;  // slot 0's length field
         std::memcpy(p->raw() + 4 + 2, &len, sizeof(len));
       }},
      {"overlong varint",
       [](SlottedPage* p, size_t off) {
         std::memset(p->raw() + off + 16, 0x80, 10);
       }},
      {"length past the record",
       [](SlottedPage* p, size_t off) { p->raw()[off + 16] = 0x7F; }},
      {"length near 2^64",
       [](SlottedPage* p, size_t off) {
         std::memset(p->raw() + off + 16, 0xFF, 9);
         p->raw()[off + 25] = 0x01;
       }},
  };
  for (const auto& [name, edit] : faults) {
    {
      FILE* f = fopen(kmap_file.c_str(), "r+b");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(fwrite(pristine.data(), 1, kPageSize, f), kPageSize);
      fclose(f);
    }
    EditFirstRow(kmap_file, edit);
    {
      auto kmap = HeapTable::Open(kmap_file, KMapSchema());
      ASSERT_TRUE(kmap.ok());
      Status tuple_scan =
          (*kmap)->Scan([](RecordId, const Tuple&) { return true; });
      EXPECT_TRUE(tuple_scan.IsCorruption())
          << name << ": " << tuple_scan.ToString();
    }
    auto db = StaccatoDb::OpenExisting(dir);
    ASSERT_TRUE(db.ok()) << name << ": " << db.status().ToString();
    Session session(db->get());
    for (Approach approach : {Approach::kMap, Approach::kKMap}) {
      for (const std::vector<EqualityPredicate>& eqs :
           {std::vector<EqualityPredicate>{},
            std::vector<EqualityPredicate>{{"Year", "2011"}}}) {
        auto pq = session.Prepare(approach, AllAnswers("President", eqs));
        ASSERT_TRUE(pq.ok()) << pq.status().ToString();
        auto got = pq->Execute();
        ASSERT_FALSE(got.ok()) << name << ", " << ApproachName(approach)
                               << (eqs.empty() ? "" : ", Year = 2011");
        EXPECT_TRUE(got.status().IsCorruption())
            << name << ": " << got.status().ToString();
      }
    }
  }
}

// ---- Deadline cut mid-scan --------------------------------------------------

// A cut mid-scan keeps the docs folded before the cut row: the answers
// are the full answers restricted to docs below visited_candidates. The
// scan polls every 256 rows, so the corpus has thousands of rows; the
// deadline sweeps fractions of one uncut run until cuts land mid-scan.
TEST_F(StringsScanTest, DeadlineCutKeepsTheFoldedDocPrefix) {
  CorpusSpec spec = SmallCorpus();
  spec.num_pages = 6;
  spec.lines_per_page = 20;
  auto data = GenerateOcrDataset(spec, Noise());
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  LoadOptions load = SmallLoad();
  load.kmap_k = 30;
  auto db = StaccatoDb::Open(eval::MakeScratchDir("strings_cut"));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Load(*data, load).ok());
  const size_t docs = (*db)->NumSfas();
  Session session(db->get(), SessionOptions{1, 1000});

  size_t mid_scan_cuts = 0;
  for (Approach approach : {Approach::kKMap, Approach::kMap}) {
    auto pq = session.Prepare(approach, AllAnswers("(\\x)*e(\\x)*", {}));
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    QueryStats full_stats;
    auto full = pq->Execute(&full_stats);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_FALSE(full->empty());
    const std::map<DocId, double> full_mass = AsMap(*full);
    const double scan_ms = full_stats.stage.fetch_eval_s * 1e3;
    size_t approach_cuts = 0;
    for (int attempt = 0; attempt < 400 && approach_cuts < 8; ++attempt) {
      ExecBudget budget;
      budget.deadline_ms = scan_ms * (0.05 + 0.9 * (attempt % 20) / 20.0);
      budget.allow_partial = true;
      QueryControl control(budget);
      QueryStats stats;
      auto got = pq->Execute(&control, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (!stats.degraded) {
        ExpectSameMass(full_mass, AsMap(*got), "uncut run");
        continue;
      }
      std::map<DocId, double> prefix;
      for (const auto& [doc, prob] : full_mass) {
        if (doc < stats.visited_candidates) prefix[doc] = prob;
      }
      ExpectSameMass(prefix, AsMap(*got),
                     StringPrintf("%s cut at doc %zu", ApproachName(approach),
                                  stats.visited_candidates));
      if (stats.visited_candidates > 0 && stats.visited_candidates < docs) {
        ++approach_cuts;
      }
    }
    mid_scan_cuts += approach_cuts;
  }
  EXPECT_GT(mid_scan_cuts, 0u) << "no deadline landed mid-scan";
}

}  // namespace
}  // namespace rdbms
}  // namespace staccato
