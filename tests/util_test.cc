#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "util/random.h"
#include "util/result.h"
#include "util/serde.h"
#include "util/status.h"
#include "util/strings.h"

namespace staccato {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad m");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad m");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad m");
}

TEST(StatusTest, AllConstructorsSetMatchingCode) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).ValueUnsafe();
  EXPECT_EQ(v, "payload");
}

TEST(SerdeTest, RoundTripScalars) {
  BinaryWriter w;
  w.PutU8(7);
  w.PutU32(123456);
  w.PutU64(1ULL << 40);
  w.PutI64(-99);
  w.PutDouble(0.125);
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.GetU8(), 7);
  EXPECT_EQ(*r.GetU32(), 123456u);
  EXPECT_EQ(*r.GetU64(), 1ULL << 40);
  EXPECT_EQ(*r.GetI64(), -99);
  EXPECT_EQ(*r.GetDouble(), 0.125);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, VarintBoundaries) {
  for (uint64_t v : std::vector<uint64_t>{0, 1, 127, 128, 16383, 16384,
                                          UINT64_C(0xFFFFFFFFFFFFFFFF)}) {
    BinaryWriter w;
    w.PutVarint(v);
    BinaryReader r(w.buffer());
    auto got = r.GetVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

TEST(SerdeTest, StringRoundTrip) {
  BinaryWriter w;
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string(1000, 'x'));
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_EQ(r.GetString()->size(), 1000u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, ReadPastEndFails) {
  BinaryWriter w;
  w.PutU8(1);
  BinaryReader r(w.buffer());
  ASSERT_TRUE(r.GetU8().ok());
  EXPECT_TRUE(r.GetU32().status().IsCorruption());
}

TEST(SerdeTest, CorruptStringLengthFails) {
  BinaryWriter w;
  w.PutVarint(1000);  // declares 1000 bytes, provides none
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.GetString().status().IsCorruption());
}

TEST(StringsTest, Split) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(JoinStrings({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringsTest, ContainsAndLower) {
  EXPECT_TRUE(Contains("Public Law 89", "Law"));
  EXPECT_FALSE(Contains("Public Law 89", "law"));
  EXPECT_EQ(ToLowerAscii("MiXeD 42"), "mixed 42");
}

TEST(StringsTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 0.5), "0.50");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 kB");
}

/// EnvUint over `value` (null = unset) in a variable no other code reads.
uint64_t EnvUintOf(const char* value, uint64_t fallback, uint64_t max) {
  const char* kName = "STACCATO_UTIL_TEST_KNOB";
  if (value == nullptr) {
    unsetenv(kName);
  } else {
    setenv(kName, value, /*overwrite=*/1);
  }
  const uint64_t v = EnvUint(kName, fallback, max);
  unsetenv(kName);
  return v;
}

TEST(EnvUintTest, AcceptsPlainDecimalUpToMax) {
  EXPECT_EQ(EnvUintOf("0", 7, 100), 0u);
  EXPECT_EQ(EnvUintOf("42", 7, 100), 42u);
  EXPECT_EQ(EnvUintOf("007", 9, 100), 7u);
  EXPECT_EQ(EnvUintOf("100", 7, 100), 100u);
  EXPECT_EQ(EnvUintOf("18446744073709551615", 7, UINT64_MAX), UINT64_MAX);
}

TEST(EnvUintTest, UnsetOrEmptyReadsFallback) {
  EXPECT_EQ(EnvUintOf(nullptr, 7, 100), 7u);
  EXPECT_EQ(EnvUintOf("", 7, 100), 7u);
}

// A sign is not a digit: strtoull would wrap "-1" to 2^64 - 1 and lift
// the slow-query log's size cap.
TEST(EnvUintTest, RejectsNegative) {
  EXPECT_EQ(EnvUintOf("-1", 16, UINT64_MAX >> 20), 16u);
  EXPECT_EQ(EnvUintOf("-0", 16, 100), 16u);
}

TEST(EnvUintTest, RejectsPlusSign) { EXPECT_EQ(EnvUintOf("+5", 7, 100), 7u); }

TEST(EnvUintTest, RejectsWhitespace) {
  EXPECT_EQ(EnvUintOf(" 5", 7, 100), 7u);
  EXPECT_EQ(EnvUintOf("5 ", 7, 100), 7u);
}

TEST(EnvUintTest, RejectsTrailingCharacters) {
  EXPECT_EQ(EnvUintOf("12abc", 7, 100), 7u);
  EXPECT_EQ(EnvUintOf("1.5", 7, 100), 7u);
  EXPECT_EQ(EnvUintOf("0x10", 7, 100), 7u);
}

TEST(EnvUintTest, RejectsAboveMax) {
  EXPECT_EQ(EnvUintOf("101", 7, 100), 7u);
  EXPECT_EQ(EnvUintOf("1025", 0, 1024), 0u);
  // A MiB count past 2^44 - 1 would wrap to a 0-byte cap when shifted
  // to bytes.
  EXPECT_EQ(EnvUintOf("17592186044415", 16, UINT64_MAX >> 20),
            (UINT64_MAX >> 20));
  EXPECT_EQ(EnvUintOf("17592186044416", 16, UINT64_MAX >> 20), 16u);
}

TEST(EnvUintTest, RejectsValuesPastUint64) {
  EXPECT_EQ(EnvUintOf("18446744073709551616", 7, UINT64_MAX), 7u);
  EXPECT_EQ(EnvUintOf("99999999999999999999999", 7, UINT64_MAX), 7u);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(2);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(w), 1u);
  }
}

}  // namespace
}  // namespace staccato
