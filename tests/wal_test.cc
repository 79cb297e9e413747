// Crash-recovery matrix for the write-ahead log (rdbms/wal.h).
//
// Every byte of the file belongs to exactly one frame, and a frame checks
// itself. The matrix tests exploit that: truncating the file at any byte
// L recovers exactly the frames that end at or before L, and corrupting
// any single byte of frame i recovers exactly frames 0..i-1. Both
// matrices are exhaustive over a small multi-frame log and targeted over
// one with frames of tens of KiB.

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/workbench.h"
#include "rdbms/wal.h"
#include "util/fault_fs.h"

namespace staccato {
namespace rdbms {
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

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(fclose(f), 0);
}

/// Deterministic payload: record i's byte j cycles through a 23-letter
/// alphabet offset by the record index, so records are distinguishable.
std::string Payload(size_t i, size_t size) {
  std::string p(size, '\0');
  for (size_t j = 0; j < size; ++j) {
    p[j] = static_cast<char>('A' + (i * 7 + j) % 23);
  }
  return p;
}

struct BuiltLog {
  std::string path;
  std::vector<std::string> payloads;
  /// ends[i] = file offset just past frame i (writer.offset() after its
  /// Append); frame i spans [ends[i-1], ends[i]).
  std::vector<uint64_t> ends;
};

BuiltLog BuildLog(const std::string& path, const std::vector<size_t>& sizes) {
  BuiltLog log;
  log.path = path;
  auto writer_or = WalWriter::Open(path, 0, WalSyncPolicy::kNever);
  EXPECT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  auto writer = std::move(*writer_or);
  for (size_t i = 0; i < sizes.size(); ++i) {
    log.payloads.push_back(Payload(i, sizes[i]));
    Status s = writer->Append(log.payloads.back());
    EXPECT_TRUE(s.ok()) << s.ToString();
    log.ends.push_back(writer->offset());
  }
  return log;  // writer destructor closes the file
}

struct ReadOutcome {
  size_t recovered = 0;
  bool torn = false;
  uint64_t last_end = 0;
};

/// Reads `path` and asserts the recovered frames are a bit-identical
/// prefix of `log`'s payloads.
ReadOutcome ReadPrefix(const std::string& path, const BuiltLog& log) {
  ReadOutcome out;
  auto reader_or = WalReader::Open(path);
  EXPECT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  auto reader = std::move(*reader_or);
  std::string_view rec;
  while (reader->ReadRecord(&rec)) {
    if (out.recovered >= log.payloads.size()) {
      ADD_FAILURE() << "recovered more frames than were written";
      break;
    }
    EXPECT_EQ(rec, log.payloads[out.recovered])
        << "frame " << out.recovered << " not bit-identical";
    ++out.recovered;
  }
  out.torn = reader->torn_tail();
  out.last_end = reader->last_record_end();
  return out;
}

/// Number of frames fully contained in the first `len` bytes.
size_t RecordsWithin(const BuiltLog& log, uint64_t len) {
  size_t n = 0;
  while (n < log.ends.size() && log.ends[n] <= len) ++n;
  return n;
}

/// Index of the frame whose span [ends[i-1], ends[i]) contains byte P.
size_t SpanOwner(const BuiltLog& log, uint64_t pos) {
  for (size_t i = 0; i < log.ends.size(); ++i) {
    if (pos < log.ends[i]) return i;
  }
  ADD_FAILURE() << "position " << pos << " beyond the last frame";
  return log.ends.size();
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::FaultInjector::Global()->Clear();
    dir_ = eval::MakeScratchDir("wal_test");
  }
  void TearDown() override { util::FaultInjector::Global()->Clear(); }

  std::string Path(const char* name) { return dir_ + "/" + name; }

  std::string dir_;
};

// Small frame sizes chosen so the whole log stays ~1.2 KiB — cheap
// enough for the exhaustive every-byte matrices below.
const std::vector<size_t> kSmallSizes = {1, 100, 700, 7, 300};

TEST_F(WalTest, RoundTripCleanEof) {
  BuiltLog log = BuildLog(Path("clean"), kSmallSizes);
  ReadOutcome out = ReadPrefix(log.path, log);
  EXPECT_EQ(out.recovered, kSmallSizes.size());
  EXPECT_FALSE(out.torn);
  EXPECT_EQ(out.last_end, log.ends.back());
  EXPECT_EQ(ReadFileBytes(log.path).size(), log.ends.back());
}

TEST_F(WalTest, EmptyAndZeroLengthRecords) {
  // A zero-length payload still has a frame and still roundtrips.
  BuiltLog log = BuildLog(Path("zero"), {0, 5, 0});
  ReadOutcome out = ReadPrefix(log.path, log);
  EXPECT_EQ(out.recovered, 3u);
  EXPECT_FALSE(out.torn);

  // An absent file is NotFound; an empty file is a clean empty log.
  EXPECT_TRUE(WalReader::Open(Path("missing")).status().IsNotFound());
  WriteFileBytes(Path("empty"), "");
  BuiltLog none;
  none.path = Path("empty");
  out = ReadPrefix(none.path, none);
  EXPECT_EQ(out.recovered, 0u);
  EXPECT_FALSE(out.torn);
}

// Exhaustive truncation matrix: for every prefix length L of the log,
// recovery yields exactly the frames that end at or before L, and the
// tail is torn exactly when L cuts inside a frame.
TEST_F(WalTest, TruncationMatrixRecoversCommittedPrefix) {
  BuiltLog log = BuildLog(Path("trunc"), kSmallSizes);
  const std::string bytes = ReadFileBytes(log.path);
  ASSERT_EQ(bytes.size(), log.ends.back());

  const std::string victim = Path("trunc_victim");
  for (uint64_t len = 0; len <= bytes.size(); ++len) {
    WriteFileBytes(victim, std::string_view(bytes).substr(0, len));
    ReadOutcome out = ReadPrefix(victim, log);
    const size_t want = RecordsWithin(log, len);
    const uint64_t prev = want == 0 ? 0 : log.ends[want - 1];
    EXPECT_EQ(out.recovered, want) << "truncated at " << len;
    EXPECT_EQ(out.last_end, prev) << "truncated at " << len;
    EXPECT_EQ(out.torn, len != prev) << "truncated at " << len;
  }
}

// Exhaustive corruption matrix: flipping any single byte of frame i
// recovers exactly frames 0..i-1 and reports a torn tail.
TEST_F(WalTest, CorruptionMatrixRecoversPrecedingRecords) {
  BuiltLog log = BuildLog(Path("corrupt"), kSmallSizes);
  const std::string bytes = ReadFileBytes(log.path);

  const std::string victim = Path("corrupt_victim");
  for (uint64_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x55);
    WriteFileBytes(victim, mutated);
    ReadOutcome out = ReadPrefix(victim, log);
    const size_t owner = SpanOwner(log, pos);
    EXPECT_EQ(out.recovered, owner) << "corrupted byte " << pos;
    EXPECT_TRUE(out.torn) << "corrupted byte " << pos;
    EXPECT_EQ(out.last_end, owner == 0 ? 0 : log.ends[owner - 1])
        << "corrupted byte " << pos;
  }
}

// Frames of tens of KiB. Exhaustive matrices would be ~200k iterations
// here, so probe the interesting offsets: every frame end +-1 and every
// byte of every frame header.
TEST_F(WalTest, LargeFrameMatrix) {
  const std::vector<size_t> sizes = {32758, 100, 80000, 50};
  BuiltLog log = BuildLog(Path("large"), sizes);
  const std::string bytes = ReadFileBytes(log.path);
  ASSERT_EQ(bytes.size(), log.ends.back());

  ReadOutcome clean = ReadPrefix(log.path, log);
  EXPECT_EQ(clean.recovered, sizes.size());
  EXPECT_FALSE(clean.torn);

  std::vector<uint64_t> probes;
  uint64_t start = 0;
  for (uint64_t end : log.ends) {
    for (uint64_t h = 0; h < kWalFrameHeaderSize; ++h) {
      probes.push_back(start + h);
    }
    for (int64_t d : {-1, 0, 1}) probes.push_back(end + d);
    start = end;
  }

  const std::string victim = Path("large_victim");
  for (uint64_t len : probes) {
    if (len > bytes.size()) continue;
    WriteFileBytes(victim, std::string_view(bytes).substr(0, len));
    ReadOutcome out = ReadPrefix(victim, log);
    const size_t want = RecordsWithin(log, len);
    EXPECT_EQ(out.recovered, want) << "truncated at " << len;
    EXPECT_EQ(out.torn, len != (want == 0 ? 0 : log.ends[want - 1]))
        << "truncated at " << len;
  }
  for (uint64_t pos : probes) {
    if (pos >= bytes.size()) continue;
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x55);
    WriteFileBytes(victim, mutated);
    ReadOutcome out = ReadPrefix(victim, log);
    EXPECT_EQ(out.recovered, SpanOwner(log, pos)) << "corrupted byte " << pos;
    EXPECT_TRUE(out.torn) << "corrupted byte " << pos;
  }
}

// A failed Append — its write, its flush or its fsync — must leave the
// file at the previous frame's end: the frame is never replayed, and no
// torn bytes precede later successful appends.
TEST_F(WalTest, FailedAppendRollsBackToRecordBoundary) {
  const std::string path = Path("wal_fault.log");
  auto writer_or = WalWriter::Open(path, 0, WalSyncPolicy::kCommit);
  ASSERT_TRUE(writer_or.ok());
  auto writer = std::move(*writer_or);

  BuiltLog log;
  log.path = path;
  log.payloads.push_back(Payload(0, 200));
  ASSERT_TRUE(writer->Append(log.payloads[0]).ok());
  log.ends.push_back(writer->offset());

  // A full write failure, a short write that persists a 5-byte torn
  // prefix before failing, a failed flush, and a failed fsync (kCommit
  // fsyncs every Append): each must roll back.
  const std::vector<util::FaultRule> faults = {
      {util::FaultOp::kWrite, "wal_fault", 0, 0, false},
      {util::FaultOp::kWrite, "wal_fault", 0, 5, false},
      {util::FaultOp::kFlush, "wal_fault", 0, 0, false},
      {util::FaultOp::kSync, "wal_fault", 0, 0, false}};
  for (const util::FaultRule& fault : faults) {
    util::FaultInjector::Global()->Install(fault);
    Status s = writer->Append(Payload(9, 300));
    EXPECT_FALSE(s.ok()) << "op " << static_cast<int>(fault.op);
    EXPECT_EQ(writer->offset(), log.ends[0]);
    EXPECT_EQ(ReadFileBytes(path).size(), log.ends[0])
        << "op " << static_cast<int>(fault.op);
  }
  util::FaultInjector::Global()->Clear();

  // The writer keeps working after the fault clears, and a reopening
  // reader sees exactly the successful frames.
  log.payloads.push_back(Payload(1, 64));
  ASSERT_TRUE(writer->Append(log.payloads[1]).ok());
  log.ends.push_back(writer->offset());
  writer.reset();

  ReadOutcome out = ReadPrefix(path, log);
  EXPECT_EQ(out.recovered, 2u);
  EXPECT_FALSE(out.torn);

  // Resuming at last_record_end() and appending again also roundtrips.
  auto resumed_or = WalWriter::Open(path, out.last_end, WalSyncPolicy::kNever);
  ASSERT_TRUE(resumed_or.ok());
  log.payloads.push_back(Payload(2, 1000));
  ASSERT_TRUE((*resumed_or)->Append(log.payloads[2]).ok());
  log.ends.push_back((*resumed_or)->offset());
  resumed_or->reset();
  out = ReadPrefix(path, log);
  EXPECT_EQ(out.recovered, 3u);
  EXPECT_FALSE(out.torn);
}

// A payload whose length does not fit the frame's 32-bit length field is
// refused before anything is written. The payload is a PROT_NONE mapping,
// so reading any of it would crash the test.
TEST_F(WalTest, OversizedPayloadRefusedUnwritten) {
  const std::string path = Path("oversized.log");
  auto writer_or = WalWriter::Open(path, 0, WalSyncPolicy::kNever);
  ASSERT_TRUE(writer_or.ok());
  auto writer = std::move(*writer_or);
  ASSERT_TRUE(writer->Append(Payload(0, 10)).ok());
  const uint64_t end = writer->offset();

  const size_t size = (size_t{1} << 32) + 1;
  void* region = mmap(nullptr, size, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(region, MAP_FAILED);
  Status s = writer->Append(
      std::string_view(static_cast<const char*>(region), size));
  munmap(region, size);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(writer->offset(), end);
  EXPECT_EQ(ReadFileBytes(path).size(), end);
  EXPECT_TRUE(writer->Append(Payload(1, 10)).ok()) << "writer not sticky";
}

TEST_F(WalTest, ResetTruncatesToEmpty) {
  const std::string path = Path("reset.log");
  auto writer_or = WalWriter::Open(path, 0, WalSyncPolicy::kNever);
  ASSERT_TRUE(writer_or.ok());
  ASSERT_TRUE((*writer_or)->Append(Payload(0, 500)).ok());
  ASSERT_TRUE((*writer_or)->Reset().ok());
  EXPECT_EQ((*writer_or)->offset(), 0u);
  writer_or->reset();
  EXPECT_EQ(ReadFileBytes(path).size(), 0u);
}

TEST_F(WalTest, DocRecordRoundTrip) {
  WalDocRecord rec;
  rec.seq = 41;
  rec.doc_name = "congress_acts-page-3";
  rec.year = 2013;
  rec.truth = "An Act to provide tests";
  rec.kmap_k = 8;
  rec.staccato_m = 16;
  rec.staccato_k = 9;
  rec.full_sfa = std::string("\x01\x02\x00\xffsfa-bytes", 13);

  const std::string bytes = EncodeWalDoc(rec);
  auto got_or = DecodeWalDoc(bytes);
  ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
  EXPECT_EQ(got_or->seq, rec.seq);
  EXPECT_EQ(got_or->doc_name, rec.doc_name);
  EXPECT_EQ(got_or->year, rec.year);
  EXPECT_EQ(got_or->truth, rec.truth);
  EXPECT_EQ(got_or->kmap_k, rec.kmap_k);
  EXPECT_EQ(got_or->staccato_m, rec.staccato_m);
  EXPECT_EQ(got_or->staccato_k, rec.staccato_k);
  EXPECT_EQ(got_or->full_sfa, rec.full_sfa);

  // Wrong tag, trailing garbage, and truncation all fail to decode.
  std::string wrong_tag = bytes;
  wrong_tag[0] = static_cast<char>(kWalDocTag + 1);
  EXPECT_FALSE(DecodeWalDoc(wrong_tag).ok());
  EXPECT_FALSE(DecodeWalDoc(bytes + "x").ok());
  EXPECT_FALSE(DecodeWalDoc(std::string_view(bytes).substr(0, 5)).ok());
  EXPECT_FALSE(DecodeWalDoc("").ok());
}

}  // namespace
}  // namespace rdbms
}  // namespace staccato
