// Unit tests for the fault-injection seam (util/fault_fs.h): injected
// short writes, flush failures, and fsync failures must surface as
// Status errors through every storage layer that writes bytes —
// HeapTable, BlobStore, and the WAL writer — instead of being swallowed.
// ReadFile tells a missing file from an unreadable one.
// Heap page reads go through the same seam as blob reads. Directory-sync
// failures after the atomic meta renames must surface from Load,
// Checkpoint, and ShardedDb::Open.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "eval/workbench.h"
#include "ocr/corpus.h"
#include "ocr/generator.h"
#include "rdbms/blob_store.h"
#include "rdbms/heap_table.h"
#include "rdbms/session.h"
#include "rdbms/shard.h"
#include "rdbms/staccato_db.h"
#include "rdbms/value.h"
#include "rdbms/wal.h"
#include "util/fault_fs.h"
#include "util/strings.h"

namespace staccato {
namespace util {
namespace {

std::string ReadFileBytes(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  fclose(f);
  return out;
}

class FaultFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global()->Clear();
    dir_ = eval::MakeScratchDir("fault_fs_test");
  }
  void TearDown() override { FaultInjector::Global()->Clear(); }

  std::string Path(const char* name) { return dir_ + "/" + name; }

  std::string dir_;
};

TEST_F(FaultFsTest, CheckedWriteFailsAndPersistsShortPrefix) {
  const std::string path = Path("short.bin");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);

  // A short write persists exactly `short_bytes` of the payload before
  // failing — the torn-prefix shape a real partial write leaves behind.
  FaultInjector::Global()->Install({FaultOp::kWrite, "short.bin", 0, 3, false});
  Status s = CheckedWrite(f, "0123456789", 10, path);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();

  // The rule was one-shot: the next write goes through.
  EXPECT_TRUE(CheckedWrite(f, "AB", 2, path).ok());
  fclose(f);
  EXPECT_EQ(ReadFileBytes(path), "012AB");
}

TEST_F(FaultFsTest, PathSubstringScopesTheRule) {
  const std::string hit = Path("victim.bin");
  const std::string miss = Path("bystander.bin");
  FILE* fh = fopen(hit.c_str(), "wb");
  FILE* fm = fopen(miss.c_str(), "wb");
  ASSERT_NE(fh, nullptr);
  ASSERT_NE(fm, nullptr);

  FaultInjector::Global()->Install({FaultOp::kWrite, "victim", 0, 0, false});
  EXPECT_TRUE(CheckedWrite(fm, "ok", 2, miss).ok());  // other file unaffected
  EXPECT_FALSE(CheckedWrite(fh, "xx", 2, hit).ok());
  fclose(fh);
  fclose(fm);
}

TEST_F(FaultFsTest, CountdownDelaysTheFault) {
  const std::string path = Path("countdown.bin");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);

  FaultInjector::Global()->Install(
      {FaultOp::kWrite, "countdown", /*countdown=*/2, 0, false});
  EXPECT_TRUE(CheckedWrite(f, "a", 1, path).ok());
  EXPECT_TRUE(CheckedWrite(f, "b", 1, path).ok());
  EXPECT_FALSE(CheckedWrite(f, "c", 1, path).ok());
  EXPECT_TRUE(CheckedWrite(f, "d", 1, path).ok());  // rule consumed
  fclose(f);
}

TEST_F(FaultFsTest, StickyRuleFailsUntilCleared) {
  const std::string path = Path("sticky.bin");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);

  FaultInjector::Global()->Install({FaultOp::kSync, "sticky", 0, 0, true});
  EXPECT_FALSE(CheckedSync(f, path).ok());
  EXPECT_FALSE(CheckedSync(f, path).ok());
  FaultInjector::Global()->Clear();
  EXPECT_TRUE(CheckedSync(f, path).ok());
  fclose(f);
}

TEST_F(FaultFsTest, FlushAndSyncOpsAreDistinct) {
  const std::string path = Path("ops.bin");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);

  FaultInjector::Global()->Install({FaultOp::kFlush, "ops", 0, 0, false});
  EXPECT_TRUE(CheckedWrite(f, "x", 1, path).ok());  // write op unaffected
  EXPECT_FALSE(CheckedFlush(f, path).ok());
  EXPECT_TRUE(CheckedFlush(f, path).ok());

  // CheckedSync flushes first, so a flush fault also fails the sync.
  FaultInjector::Global()->Install({FaultOp::kFlush, "ops", 0, 0, false});
  EXPECT_FALSE(CheckedSync(f, path).ok());
  fclose(f);
}

TEST_F(FaultFsTest, HeapTableSurfacesWriteFaults) {
  rdbms::Schema schema({{"Id", rdbms::ValueType::kInt},
                        {"Name", rdbms::ValueType::kString}});
  const std::string path = Path("table.tbl");
  auto table_or = rdbms::HeapTable::Create(path, schema);
  ASSERT_TRUE(table_or.ok()) << table_or.status().ToString();
  auto& table = *table_or;
  ASSERT_TRUE(
      table->Insert({rdbms::Value::Int(1), rdbms::Value::String("a")}).ok());

  FaultInjector::Global()->Install({FaultOp::kWrite, "table.tbl", 0, 0, true});
  EXPECT_FALSE(table->Flush().ok());
  FaultInjector::Global()->Clear();
  EXPECT_TRUE(table->Flush().ok());

  // Flush writes back the dirty tail page; a write fault must surface
  // rather than the page counting as written.
  ASSERT_TRUE(
      table->Insert({rdbms::Value::Int(2), rdbms::Value::String("b")}).ok());
  FaultInjector::Global()->Install({FaultOp::kWrite, "table.tbl", 0, 0, true});
  EXPECT_FALSE(table->Flush().ok());
  FaultInjector::Global()->Clear();

  FaultInjector::Global()->Install({FaultOp::kSync, "table.tbl", 0, 0, false});
  EXPECT_FALSE(table->Sync().ok());
  EXPECT_TRUE(table->Sync().ok());

  // The tail stayed dirty through the failed write, so the successful
  // Sync wrote it: a fresh handle reads both rows from the file.
  auto reopened = rdbms::HeapTable::Open(path, schema);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->NumTuples(), 2u);
  auto row = (*reopened)->Get(rdbms::RecordId{0, 1});
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ((*row)[1].AsString(), "b");
}

// Heap page reads go through CheckedPRead, as blob reads do: once the
// cache is dropped, a read fault on the kMAPData file fails a MAP query
// with the injected IOError, and once the disk heals the same prepared
// query answers exactly as before.
TEST_F(FaultFsTest, HeapPageReadFaultsSurfaceFromQueries) {
  CorpusSpec spec;
  spec.kind = DatasetKind::kCongressActs;
  spec.num_pages = 2;
  spec.lines_per_page = 20;
  spec.max_line_chars = 40;
  spec.seed = 99;
  OcrNoiseModel noise;
  noise.alternatives = 4;
  auto data = GenerateOcrDataset(spec, noise);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  rdbms::LoadOptions load;
  load.kmap_k = 8;
  load.staccato.m = 8;
  load.staccato.k = 4;
  auto db = rdbms::StaccatoDb::Open(Path("heap_read_db"));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Load(*data, load).ok());
  // Page 0 must be sealed: the unsealed tail is read from memory.
  ASSERT_GT((*db)->Storage().kmap_table_bytes, rdbms::kPageSize);

  rdbms::Session session(db->get());
  rdbms::QueryOptions q;
  q.pattern = DatasetQueries(DatasetKind::kCongressActs)[0];
  q.num_ans = 100;
  auto pq = session.Prepare(rdbms::Approach::kMap, q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  auto want = pq->Execute();
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  ASSERT_TRUE((*db)->DropCaches().ok());
  FaultInjector::Global()->Install({FaultOp::kRead, "kmap.tbl", 0, 0, true});
  auto failed = pq->Execute();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  EXPECT_NE(failed.status().ToString().find("kmap.tbl"), std::string::npos)
      << failed.status().ToString();

  FaultInjector::Global()->Clear();
  auto healed = pq->Execute();
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  ASSERT_EQ(healed->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*healed)[i].doc, (*want)[i].doc) << "rank " << i;
    EXPECT_EQ((*healed)[i].prob, (*want)[i].prob) << "rank " << i;
  }
}

TEST_F(FaultFsTest, BlobStoreSurfacesWriteFaults) {
  const std::string path = Path("blobs.dat");
  auto store_or = rdbms::BlobStore::Create(path);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto& store = *store_or;

  FaultInjector::Global()->Install({FaultOp::kWrite, "blobs.dat", 0, 0, true});
  EXPECT_FALSE(store->Put("payload").ok());
  FaultInjector::Global()->Clear();

  auto id = store->Put("payload");
  ASSERT_TRUE(id.ok());

  FaultInjector::Global()->Install({FaultOp::kFlush, "blobs.dat", 0, 0, false});
  EXPECT_FALSE(store->Flush().ok());
  // The dirty flag survived the failed flush: the retry pushes the bytes
  // and the blob reads back intact.
  EXPECT_TRUE(store->Flush().ok());
  auto got = store->Get(*id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "payload");

  FaultInjector::Global()->Install({FaultOp::kSync, "blobs.dat", 0, 0, false});
  EXPECT_FALSE(store->Sync().ok());
  EXPECT_TRUE(store->Sync().ok());
}

// Every WAL fault fails the Append and leaves the log at the previous
// frame's end: kCommit fsyncs each frame, so a write, flush or sync fault
// all hit it.
TEST_F(FaultFsTest, WalWriterSurfacesFaults) {
  const std::string path = Path("faulty_wal.log");
  auto writer_or =
      rdbms::WalWriter::Open(path, 0, rdbms::WalSyncPolicy::kCommit);
  ASSERT_TRUE(writer_or.ok());
  auto& writer = *writer_or;

  FaultInjector::Global()->Install(
      {FaultOp::kWrite, "faulty_wal", 0, 0, false});
  EXPECT_FALSE(writer->Append("doomed").ok());
  EXPECT_EQ(writer->offset(), 0u);
  EXPECT_EQ(ReadFileBytes(path).size(), 0u);

  ASSERT_TRUE(writer->Append("record").ok());
  const uint64_t end = writer->offset();
  for (FaultOp op : {FaultOp::kFlush, FaultOp::kSync}) {
    FaultInjector::Global()->Install({op, "faulty_wal", 0, 0, false});
    EXPECT_FALSE(writer->Append("doomed").ok()) << static_cast<int>(op);
    EXPECT_EQ(writer->offset(), end) << static_cast<int>(op);
    EXPECT_EQ(ReadFileBytes(path).size(), end) << static_cast<int>(op);
  }
  EXPECT_TRUE(writer->Append("record").ok());
  EXPECT_GT(writer->offset(), end);
}

bool FileExists(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  fclose(f);
  return true;
}

// A rename is durable only once its directory is synced, so every meta
// commit (StaccatoDb's staccato.meta, ShardedDb's shard-count file) syncs
// the directory and reports a failed sync instead of claiming durability.
TEST_F(FaultFsTest, DirSyncFaultsSurfaceFromMetaCommits) {
  EXPECT_TRUE(SyncDir(dir_).ok());
  EXPECT_TRUE(SyncDir(Path("no_such_dir")).IsIOError());
  FaultInjector::Global()->Install({FaultOp::kDirSync, dir_, 0, 0, false});
  EXPECT_TRUE(SyncDir(dir_).IsIOError());
  EXPECT_TRUE(SyncDir(dir_).ok()) << "one-shot rule";

  CorpusSpec spec;
  spec.kind = DatasetKind::kCongressActs;
  spec.num_pages = 1;
  spec.lines_per_page = 4;
  spec.max_line_chars = 30;
  spec.seed = 99;
  OcrNoiseModel noise;
  noise.alternatives = 4;
  auto data = GenerateOcrDataset(spec, noise);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  rdbms::LoadOptions load;
  load.kmap_k = 4;
  load.staccato.m = 8;
  load.staccato.k = 4;

  const std::string db_dir = Path("db");
  auto db = rdbms::StaccatoDb::Open(db_dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  FaultInjector::Global()->Install({FaultOp::kDirSync, db_dir, 0, 0, false});
  Status load_st = (*db)->Load(*data, load);
  EXPECT_TRUE(load_st.IsIOError()) << load_st.ToString();
  ASSERT_TRUE((*db)->Load(*data, load).ok());

  // Checkpoint reports the failed sync and leaves the WAL alone, so the
  // committed append survives a reopen.
  rdbms::DocumentInput doc;
  doc.doc_name = StringPrintf("%s-page-0", data->corpus.name.c_str());
  doc.year = 2010;
  doc.truth = data->corpus.lines[0];
  doc.sfa = data->sfas[0];
  ASSERT_TRUE((*db)->Append(doc).ok());
  FaultInjector::Global()->Install({FaultOp::kDirSync, db_dir, 0, 0, false});
  Status ckpt_st = (*db)->Checkpoint();
  EXPECT_TRUE(ckpt_st.IsIOError()) << ckpt_st.ToString();
  EXPECT_FALSE(FileExists(db_dir + "/staccato.meta.tmp"));
  db->reset();
  auto reopened = rdbms::StaccatoDb::OpenExisting(db_dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->NumSfas(), data->sfas.size() + 1);

  // A rename that fails (the target is a non-empty directory) leaves no
  // staccato.meta.tmp behind.
  const std::string blocked_dir = Path("blocked");
  auto blocked = rdbms::StaccatoDb::Open(blocked_dir);
  ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
  std::error_code ec;
  std::filesystem::create_directories(blocked_dir + "/staccato.meta/occupied",
                                      ec);
  ASSERT_FALSE(ec) << ec.message();
  Status blocked_st = (*blocked)->Load(*data, load);
  EXPECT_TRUE(blocked_st.IsIOError()) << blocked_st.ToString();
  EXPECT_FALSE(FileExists(blocked_dir + "/staccato.meta.tmp"));

  const std::string sharded_dir = Path("sharded");
  FaultInjector::Global()->Install(
      {FaultOp::kDirSync, sharded_dir, 0, 0, false});
  auto sharded =
      rdbms::ShardedDb::Open(sharded_dir, rdbms::ShardConfig{2, {}});
  ASSERT_FALSE(sharded.ok());
  EXPECT_TRUE(sharded.status().IsIOError()) << sharded.status().ToString();
}

// ReadFile reports NotFound only for a file that does not exist: an open
// that fails for another reason (here ENOTDIR, a path under a regular
// file) is an IOError, so a caller never mistakes an unreadable file for
// an absent one.
TEST_F(FaultFsTest, ReadFileSeparatesMissingFromUnreadable) {
  const std::string path = Path("whole.bin");
  ASSERT_TRUE(WriteFileAtomic(dir_, path, std::string("a\0b", 3)).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, std::string("a\0b", 3));
  EXPECT_FALSE(FileExists(path + ".tmp"));

  EXPECT_TRUE(ReadFile(Path("missing.bin")).status().IsNotFound());
  auto under_file = ReadFile(path + "/child");
  EXPECT_TRUE(under_file.status().IsIOError())
      << under_file.status().ToString();
}

}  // namespace
}  // namespace util
}  // namespace staccato
