#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "inference/kbest.h"
#include "inference/query_eval.h"
#include "ocr/generator.h"
#include "sfa/sfa.h"
#include "util/random.h"

namespace staccato {
namespace {

Sfa Figure1Sfa() {
  SfaBuilder b;
  NodeId n0 = b.AddNode(), n1 = b.AddNode(), n2 = b.AddNode(), n3 = b.AddNode(),
         n4 = b.AddNode(), n5 = b.AddNode();
  EXPECT_TRUE(b.AddTransition(n0, n1, "F", 0.8).ok());
  EXPECT_TRUE(b.AddTransition(n0, n1, "T", 0.2).ok());
  EXPECT_TRUE(b.AddTransition(n1, n2, "0", 0.6).ok());
  EXPECT_TRUE(b.AddTransition(n1, n2, "o", 0.4).ok());
  EXPECT_TRUE(b.AddTransition(n2, n3, " ", 0.6).ok());
  EXPECT_TRUE(b.AddTransition(n2, n4, "r", 0.4).ok());
  EXPECT_TRUE(b.AddTransition(n3, n4, "r", 0.8).ok());
  EXPECT_TRUE(b.AddTransition(n3, n4, "m", 0.2).ok());
  EXPECT_TRUE(b.AddTransition(n4, n5, "d", 0.9).ok());
  EXPECT_TRUE(b.AddTransition(n4, n5, "3", 0.1).ok());
  b.SetStart(n0);
  b.SetFinal(n5);
  return *b.Build(true);
}

TEST(KBestTest, MapIsFigure1Map) {
  Sfa sfa = Figure1Sfa();
  auto map = MapString(sfa);
  ASSERT_TRUE(map.ok());
  // Figure 1: 'F0 rd' is the most likely string with p ≈ 0.207.
  EXPECT_EQ(map->str, "F0 rd");
  EXPECT_NEAR(map->prob, 0.8 * 0.6 * 0.6 * 0.8 * 0.9, 1e-12);
}

TEST(KBestTest, AgreesWithEnumeration) {
  Sfa sfa = Figure1Sfa();
  for (size_t k : {1u, 3u, 5u, 10u, 24u, 100u}) {
    auto fast = KBestStrings(sfa, k);
    auto slow = KBestStringsByEnumeration(sfa, k, 1 << 16);
    ASSERT_TRUE(slow.ok());
    ASSERT_EQ(fast.size(), slow->size()) << "k=" << k;
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].str, (*slow)[i].str) << "k=" << k << " i=" << i;
      EXPECT_NEAR(fast[i].prob, (*slow)[i].prob, 1e-12);
    }
  }
}

TEST(KBestTest, SortedDescendingAndDistinct) {
  Sfa sfa = Figure1Sfa();
  auto top = KBestStrings(sfa, 24);
  EXPECT_EQ(top.size(), 24u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].prob, top[i].prob);
    EXPECT_NE(top[i - 1].str, top[i].str);
  }
}

TEST(KBestTest, KLargerThanPathCount) {
  Sfa sfa = Figure1Sfa();
  auto top = KBestStrings(sfa, 1000);
  EXPECT_EQ(top.size(), 24u);
  double mass = 0;
  for (const auto& s : top) mass += s.prob;
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(KBestTest, ZeroKEmpty) {
  EXPECT_TRUE(KBestStrings(Figure1Sfa(), 0).empty());
}

TEST(KBestTest, RandomSfasAgreeWithEnumeration) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    // Random small layered DAG with unique-path safe labels (distinct chars
    // per source node).
    SfaBuilder b;
    size_t layers = static_cast<size_t>(rng.UniformInt(2, 5));
    std::vector<NodeId> prev{b.AddNode()};
    NodeId start = prev[0];
    for (size_t l = 0; l < layers; ++l) {
      size_t width = static_cast<size_t>(rng.UniformInt(1, 2));
      std::vector<NodeId> cur;
      for (size_t w = 0; w < width; ++w) cur.push_back(b.AddNode());
      int label = 0;
      for (NodeId p : prev) {
        for (NodeId c : cur) {
          double prob = 0.3 + 0.4 * rng.UniformDouble();
          ASSERT_TRUE(b.AddTransition(p, c, std::string(1, static_cast<char>('a' + label)),
                                      prob)
                          .ok());
          ++label;
          if (rng.Coin(0.5)) {
            ASSERT_TRUE(b.AddTransition(p, c,
                                        std::string(1, static_cast<char>('a' + label)),
                                        0.1 + 0.2 * rng.UniformDouble())
                            .ok());
            ++label;
          }
        }
      }
      prev = cur;
    }
    NodeId final = b.AddNode();
    for (NodeId p : prev) {
      ASSERT_TRUE(b.AddTransition(p, final, "z", 0.9).ok());
    }
    b.SetStart(start);
    b.SetFinal(final);
    auto sfa = b.Build();
    ASSERT_TRUE(sfa.ok()) << sfa.status().ToString();
    for (size_t k : {1u, 4u, 16u}) {
      auto fast = KBestStrings(*sfa, k);
      auto slow = KBestStringsByEnumeration(*sfa, k, 1 << 16);
      ASSERT_TRUE(slow.ok());
      ASSERT_EQ(fast.size(), slow->size());
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_NEAR(fast[i].prob, (*slow)[i].prob, 1e-12);
      }
    }
  }
}

// Brute-force Pr[q] by enumerating all strings.
double BruteForceProb(const Sfa& sfa, const Dfa& dfa) {
  auto strings = sfa.EnumerateStrings(1 << 20);
  EXPECT_TRUE(strings.ok());
  double p = 0;
  for (const auto& [s, pr] : *strings) {
    if (dfa.Matches(s)) p += pr;
  }
  return p;
}

TEST(QueryEvalTest, FordProbabilityMatchesPaper) {
  Sfa sfa = Figure1Sfa();
  auto dfa = Dfa::Compile("Ford", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  double p = EvalSfaQuery(sfa, *dfa);
  // Figure 1(C): the claim is found with probability ≈ 0.12 (here exactly
  // 0.8*0.4*0.4*0.9 since only one string contains 'Ford').
  EXPECT_NEAR(p, 0.8 * 0.4 * 0.4 * 0.9, 1e-12);
  EXPECT_NEAR(p, BruteForceProb(sfa, *dfa), 1e-12);
}

TEST(QueryEvalTest, MatchesBruteForceOnManyPatterns) {
  Sfa sfa = Figure1Sfa();
  for (const char* pat : {"F", "T0", "rd", "m3", "F(0|o)", "F\\x", "(\\x)*",
                          "Fo\\x", "\\d", "F0 rd", "zzz"}) {
    auto dfa = Dfa::Compile(pat, MatchMode::kContains);
    ASSERT_TRUE(dfa.ok()) << pat;
    EXPECT_NEAR(EvalSfaQuery(sfa, *dfa), BruteForceProb(sfa, *dfa), 1e-12)
        << pat;
  }
}

TEST(QueryEvalTest, ImpossiblePatternIsZero) {
  Sfa sfa = Figure1Sfa();
  auto dfa = Dfa::Compile("xyzzy", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_EQ(EvalSfaQuery(sfa, *dfa), 0.0);
}

TEST(QueryEvalTest, CertainPatternIsOne) {
  Sfa sfa = Figure1Sfa();
  // Every string starts with F or T.
  auto dfa = Dfa::Compile("(F|T)", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_NEAR(EvalSfaQuery(sfa, *dfa), 1.0, 1e-12);
}

TEST(QueryEvalTest, MultiCharLabels) {
  // Generalized SFA with string labels (as produced by Collapse).
  SfaBuilder b;
  NodeId a = b.AddNode(), m = b.AddNode(), f = b.AddNode();
  ASSERT_TRUE(b.AddTransition(a, m, "Fo", 0.7).ok());
  ASSERT_TRUE(b.AddTransition(a, m, "T0", 0.3).ok());
  ASSERT_TRUE(b.AddTransition(m, f, "rd", 0.9).ok());
  ASSERT_TRUE(b.AddTransition(m, f, "m3", 0.1).ok());
  b.SetStart(a);
  b.SetFinal(f);
  auto sfa = b.Build(true);
  ASSERT_TRUE(sfa.ok());
  auto dfa = Dfa::Compile("Ford", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_NEAR(EvalSfaQuery(*sfa, *dfa), 0.7 * 0.9, 1e-12);
  // Pattern straddling the label boundary.
  auto dfa2 = Dfa::Compile("0m", MatchMode::kContains);
  ASSERT_TRUE(dfa2.ok());
  EXPECT_NEAR(EvalSfaQuery(*sfa, *dfa2), 0.3 * 0.1, 1e-12);
}

TEST(QueryEvalTest, StringsQuerySumsDisjointEvents) {
  std::vector<ScoredString> strings = {
      {"the Ford car", 0.5}, {"the F0rd car", 0.3}, {"a Ford too", 0.1}};
  auto dfa = Dfa::Compile("Ford", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_NEAR(EvalStringsQuery(strings, *dfa), 0.6, 1e-12);
}

TEST(QueryEvalTest, StringsQueryEmptyIsZero) {
  auto dfa = Dfa::Compile("x", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_EQ(EvalStringsQuery({}, *dfa), 0.0);
}

TEST(QueryEvalTest, WorkCountScalesWithDfaStates) {
  Sfa sfa = Figure1Sfa();
  auto small = Dfa::Compile("F", MatchMode::kContains);
  auto big = Dfa::Compile("F0 rd", MatchMode::kContains);
  ASSERT_TRUE(small.ok() && big.ok());
  EXPECT_LT(CountEvalWork(sfa, *small), CountEvalWork(sfa, *big));
}

TEST(QueryEvalTest, ChainSfaExactProbability) {
  // Chain of 5 positions, 4 alternatives each (a..d uniform). The pattern
  // 'aa' must appear in two consecutive positions.
  auto chain = MakeChainSfa(5, 4);
  ASSERT_TRUE(chain.ok());
  auto dfa = Dfa::Compile("aa", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_NEAR(EvalSfaQuery(*chain, *dfa), BruteForceProb(*chain, *dfa), 1e-12);
}

// ---------------------------------------------------------------------------
// Bounded (early-terminating) kernel and the SfaView flat decoder.
// ---------------------------------------------------------------------------

// The small-DFA cases (q <= 7): Figure 1 and a chain SFA under short
// patterns, evaluated at threshold 0 through `scratch`.
void ExpectSmallDfasBitIdentical(EvalScratch* scratch) {
  Sfa sfa = Figure1Sfa();
  auto chain = MakeChainSfa(6, 4);
  ASSERT_TRUE(chain.ok());
  for (const Sfa* s : {&sfa, &*chain}) {
    const std::string blob = s->Serialize();
    for (const char* pat : {"F", "rd", "aa", "(F|T)", "\\d", "zzz"}) {
      auto dfa = Dfa::Compile(pat, MatchMode::kContains);
      ASSERT_TRUE(dfa.ok()) << pat;
      EvalBound bound;
      // Bit-identical, not just close: the bounded kernel runs the same
      // arithmetic in the same order.
      auto p = EvalSerializedSfaBounded(blob, *dfa, 0.0, scratch, &bound);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      EXPECT_EQ(*p, EvalSfaQuery(*s, *dfa)) << pat;
      EXPECT_FALSE(bound.pruned);
      EXPECT_EQ(bound.steps, bound.steps_total) << pat;
      EXPECT_EQ(bound.steps_total, CountEvalWork(*s, *dfa)) << pat;
    }
  }
}

TEST(BoundedEvalTest, ZeroThresholdBitIdenticalToReference) {
  EvalScratch scratch;
  ExpectSmallDfasBitIdentical(&scratch);
}

TEST(BoundedEvalTest, MultiWordSupportAndScratchReuse) {
  // A 37-char literal compiles to a 75-state kContains DFA, so every
  // support bitset spans two 64-bit words.
  const std::string lit = "Attorney General of the United States";
  auto dfa = Dfa::Compile(lit, MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  ASSERT_EQ(dfa->NumStates(), 75);
  // The line holds the pattern and then a 30-char prefix of it. After the
  // match the (unminimized) accepting states still track the prefix, which
  // walks the truth past state 63.
  const std::string line = "Sec " + lit + " and " + lit.substr(0, 30) + " end";
  DfaState state = dfa->start();
  DfaState highest = state;
  for (char c : line) {
    state = dfa->Next(state, c);
    highest = std::max(highest, state);
  }
  ASSERT_GE(highest, 64);

  // With no transcription errors the truth is the likeliest reading at
  // every position, so mass follows it into the second support word.
  OcrNoiseModel model;
  model.p_error = 0.0;
  model.alternatives = 4;
  model.confidence_mean = 0.95;
  model.confidence_stddev = 0.02;
  Rng rng(7);
  auto sfa = OcrLineToSfa(line, model, &rng);
  ASSERT_TRUE(sfa.ok());
  const std::string blob = sfa->Serialize();
  const double reference = EvalSfaQuery(*sfa, *dfa);
  ASSERT_GT(reference, 0.0);

  EvalScratch scratch;  // the large case runs first, then the small ones
  EvalBound bound;
  auto p = EvalSerializedSfaBounded(blob, *dfa, 0.0, &scratch, &bound);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(*p, reference);
  EXPECT_FALSE(bound.pruned);
  EXPECT_EQ(bound.steps, CountEvalWork(*sfa, *dfa));
  for (double threshold : {0.01, 0.2, 0.6}) {
    p = EvalSerializedSfaBounded(blob, *dfa, threshold, &scratch, &bound);
    ASSERT_TRUE(p.ok());
    if (bound.pruned) {
      EXPECT_LT(reference, threshold) << "thr=" << threshold;
    } else {
      EXPECT_EQ(*p, reference) << "thr=" << threshold;
    }
  }
  // The arena still holds the 75-state run's mass; a kernel that read a
  // slot before setting its support bit would pick it up here.
  ExpectSmallDfasBitIdentical(&scratch);
}

TEST(BoundedEvalTest, ViewKernelBitIdenticalToDeserializedEval) {
  Sfa sfa = Figure1Sfa();
  auto chain = MakeChainSfa(6, 4);
  ASSERT_TRUE(chain.ok());
  EvalScratch scratch;  // one scratch, reused across blobs and patterns
  for (const Sfa* s : {&sfa, &*chain}) {
    const std::string blob = s->Serialize();
    for (const char* pat : {"F", "rd", "aa", "(F|T)", "\\d", "zzz"}) {
      auto dfa = Dfa::Compile(pat, MatchMode::kContains);
      ASSERT_TRUE(dfa.ok()) << pat;
      auto p = EvalSerializedSfaBounded(blob, *dfa, 0.0, &scratch);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      EXPECT_EQ(*p, EvalSfaQuery(*s, *dfa)) << pat;
      auto legacy = EvalSerializedSfa(blob, *dfa);
      ASSERT_TRUE(legacy.ok());
      EXPECT_EQ(*p, *legacy) << pat;
    }
  }
}

TEST(BoundedEvalTest, PrunesWhenLiveMassFallsBelowThreshold) {
  // Sub-stochastic chain (approximation leak): each hop keeps half the
  // mass, so live mass is 0.5 after the first node and 0.25 at the end.
  SfaBuilder b;
  NodeId n0 = b.AddNode(), n1 = b.AddNode(), n2 = b.AddNode();
  ASSERT_TRUE(b.AddTransition(n0, n1, "x", 0.5).ok());
  ASSERT_TRUE(b.AddTransition(n1, n2, "y", 0.5).ok());
  b.SetStart(n0);
  b.SetFinal(n2);
  auto sfa = b.Build(/*require_stochastic=*/false);
  ASSERT_TRUE(sfa.ok());
  auto dfa = Dfa::Compile("xy", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  ASSERT_NEAR(EvalSfaQuery(*sfa, *dfa), 0.25, 1e-12);

  // Threshold above the post-first-node bound: aborts after node 0.
  const std::string blob = sfa->Serialize();
  EvalScratch scratch;
  EvalBound bound;
  auto pruned = EvalSerializedSfaBounded(blob, *dfa, 0.6, &scratch, &bound);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(*pruned, 0.0);
  EXPECT_TRUE(bound.pruned);
  EXPECT_LT(bound.steps, bound.steps_total);

  // Threshold below the final probability: runs to completion, same value.
  auto full = EvalSerializedSfaBounded(blob, *dfa, 0.2, &scratch, &bound);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, EvalSfaQuery(*sfa, *dfa));
  EXPECT_FALSE(bound.pruned);
}

// ---- Kernel paths: straight lines, merges and the two support widths ------

// 37 characters, 75 DFA states in contains mode: past the 64 states of a
// one-word support, so the kernel runs at its run-time width.
constexpr char kWideLiteral[] = "Attorney General of the United States";

// The bounded kernel must return EvalSfaQuery's bits at every threshold
// (each below the answer, so nothing prunes) and price the whole SFA.
void ExpectBoundedEqualsReference(const Sfa& sfa, const Dfa& dfa,
                                  std::initializer_list<double> thresholds,
                                  EvalScratch* scratch,
                                  const std::string& what) {
  const std::string blob = sfa.Serialize();
  const double reference = EvalSfaQuery(sfa, dfa);
  for (double threshold : thresholds) {
    EvalBound bound;
    auto p = EvalSerializedSfaBounded(blob, dfa, threshold, scratch, &bound);
    ASSERT_TRUE(p.ok()) << what << ": " << p.status().ToString();
    EXPECT_EQ(*p, reference) << what << " thr=" << threshold;
    EXPECT_FALSE(bound.pruned) << what << " thr=" << threshold;
    EXPECT_EQ(bound.steps, CountEvalWork(sfa, dfa)) << what;
  }
}

// SfaBuilder and SfaView::Decode accept any non-empty label bytes. Every
// byte outside the printable alphabet is in the DFA's dead class, so a
// label holding one drops its mass: on its own, before the pattern, and
// after a pattern character alike.
TEST(BoundedEvalTest, LabelBytesOutsideTheAlphabetDropTheirMass) {
  for (const std::string& pattern :
       {std::string("abc"), std::string(kWideLiteral)}) {
    auto dfa = Dfa::Compile(pattern, MatchMode::kContains);
    ASSERT_TRUE(dfa.ok());
    ASSERT_EQ(dfa->NumStates() > 64, pattern == kWideLiteral);
    const std::string head = pattern.substr(0, 2);
    const std::string tail = pattern.substr(2);
    EvalScratch scratch;
    for (char byte : {'\x00', '\x1f', '\x7f', '\x80', '\xff'}) {
      const std::string b(1, byte);
      SfaBuilder sb;
      NodeId n0 = sb.AddNode(), n1 = sb.AddNode(), n2 = sb.AddNode();
      ASSERT_TRUE(sb.AddTransition(n0, n1, head, 0.4).ok());
      ASSERT_TRUE(sb.AddTransition(n0, n1, b, 0.1).ok());
      ASSERT_TRUE(sb.AddTransition(n0, n1, b + head, 0.2).ok());
      ASSERT_TRUE(sb.AddTransition(n0, n1, head.substr(0, 1) + b, 0.1).ok());
      ASSERT_TRUE(sb.AddTransition(n0, n1, "z", 0.2).ok());
      ASSERT_TRUE(sb.AddTransition(n1, n2, tail, 0.7).ok());
      ASSERT_TRUE(sb.AddTransition(n1, n2, b + tail, 0.2).ok());
      ASSERT_TRUE(sb.AddTransition(n1, n2, tail + b, 0.1).ok());
      sb.SetStart(n0);
      sb.SetFinal(n2);
      auto sfa = sb.Build(/*require_stochastic=*/true);
      ASSERT_TRUE(sfa.ok()) << sfa.status().ToString();
      const std::string what = "pattern '" + pattern + "' byte " +
                               std::to_string(static_cast<uint8_t>(byte));
      // Only head·tail, free of the byte, contains the pattern.
      EXPECT_EQ(EvalSfaQuery(*sfa, *dfa), 0.4 * 0.7) << what;
      ExpectBoundedEqualsReference(*sfa, *dfa, {0.0, 0.1}, &scratch, what);
    }
  }
}

// At n1 DFA states 0, 1 and 2 hold 0.5, 2^-54 and 2^-54, and `z` steps all
// three to state 0. Summed in ascending state order, as the dense kernel
// sums them, each 2^-54 is half an ulp of 0.5 and rounds away: 0.5.
// Descending order would give 2^-53 + 0.5. A second SFA merges two states
// whose sum is exact, so a node holding two states must propagate both.
TEST(BoundedEvalTest, MergesAtOneCharacterInAscendingStateOrder) {
  const double tiny = std::ldexp(1.0, -54);
  ASSERT_EQ((0.5 + tiny) + tiny, 0.5);
  ASSERT_EQ((tiny + tiny) + 0.5, 0.5 + std::ldexp(1.0, -53));
  EvalScratch scratch;  // shared by both widths
  // "abc" has 7 states; with 30 more distinct characters (none of them
  // `x` or `z`) the pattern has 67.
  const std::string wide = "abcDEFGHIJKLMNOPQRSTUVW0123456789";
  for (const std::string& pattern : {std::string("abc"), wide}) {
    auto dfa = Dfa::Compile(pattern, MatchMode::kContains);
    ASSERT_TRUE(dfa.ok());
    ASSERT_EQ(dfa->NumStates(), pattern.size() == 3 ? 7 : 67);
    ASSERT_EQ(dfa->Step(dfa->start(), "a"), 1);
    ASSERT_EQ(dfa->Step(dfa->start(), "ab"), 2);
    struct Case {
      std::vector<std::pair<std::string, double>> first;
      double want;
    };
    for (const Case& c : {Case{{{"x", 0.5}, {"a", tiny}, {"ab", tiny}}, 0.5},
                          Case{{{"x", 0.5}, {"a", 0.25}}, 0.75}}) {
      SfaBuilder sb;
      NodeId n0 = sb.AddNode(), n1 = sb.AddNode(), n2 = sb.AddNode(),
             n3 = sb.AddNode();
      for (const auto& [label, prob] : c.first) {
        ASSERT_TRUE(sb.AddTransition(n0, n1, label, prob).ok());
      }
      ASSERT_TRUE(sb.AddTransition(n1, n2, "z", 1.0).ok());
      ASSERT_TRUE(sb.AddTransition(n2, n3, pattern, 1.0).ok());
      sb.SetStart(n0);
      sb.SetFinal(n3);
      auto sfa = sb.Build(/*require_stochastic=*/false);
      ASSERT_TRUE(sfa.ok()) << sfa.status().ToString();
      const std::string what = "pattern '" + pattern + "' states " +
                               std::to_string(c.first.size());
      EXPECT_EQ(EvalSfaQuery(*sfa, *dfa), c.want) << what;
      ExpectBoundedEqualsReference(*sfa, *dfa, {0.0, 1e-3}, &scratch, what);
    }
  }
}

// `(\x)*` and then n distinct characters compiles in exact mode to n + 2
// states: the start, then one state per number k = 0..n of the literal's
// leading characters that end the input read so far, numbered in order of
// k. So 62 and 63 characters give DFAs of 64 and 65 states whose highest
// state accepts, and an SFA ending in the literal carries mass into it:
// bit 63 of a one-word support, and the second word of the run-time width.
TEST(BoundedEvalTest, SupportWidthBoundary) {
  const std::string chars =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!#";
  EvalScratch scratch;  // the 65-state run reuses the 64-state arena
  for (size_t n : {size_t{62}, size_t{63}}) {
    const std::string lit = chars.substr(0, n);
    ASSERT_EQ(lit.size(), n);
    auto dfa = Dfa::Compile("(\\x)*" + lit, MatchMode::kExact);
    ASSERT_TRUE(dfa.ok()) << dfa.status().ToString();
    ASSERT_EQ(static_cast<size_t>(dfa->NumStates()), n + 2);
    const std::string text = "xy" + lit;
    ASSERT_EQ(dfa->Step(dfa->start(), text), dfa->NumStates() - 1);
    ASSERT_TRUE(dfa->IsAccept(dfa->NumStates() - 1));
    // A chain over `text`: the true character, the literal's first
    // character (so a second state holds mass) and a space, which the
    // literal does not contain.
    SfaBuilder sb;
    NodeId prev = sb.AddNode();
    sb.SetStart(prev);
    for (char c : text) {
      const NodeId node = sb.AddNode();
      const char restart = c == lit[0] ? lit[1] : lit[0];
      ASSERT_TRUE(sb.AddTransition(prev, node, std::string(1, c), 0.7).ok());
      ASSERT_TRUE(
          sb.AddTransition(prev, node, std::string(1, restart), 0.2).ok());
      ASSERT_TRUE(sb.AddTransition(prev, node, " ", 0.1).ok());
      prev = node;
    }
    sb.SetFinal(prev);
    auto sfa = sb.Build(/*require_stochastic=*/true);
    ASSERT_TRUE(sfa.ok()) << sfa.status().ToString();
    ASSERT_GT(EvalSfaQuery(*sfa, *dfa), 0.0);
    ExpectBoundedEqualsReference(*sfa, *dfa, {0.0}, &scratch,
                                 std::to_string(n + 2) + " states");
  }
}

TEST(SfaViewTest, DecodeMatchesDeserializeStructurally) {
  Sfa sfa = Figure1Sfa();
  const std::string blob = sfa.Serialize();
  auto back = Sfa::Deserialize(blob);
  ASSERT_TRUE(back.ok());
  SfaViewArena arena;
  SfaView view;
  ASSERT_TRUE(view.Decode(blob, &arena).ok());

  EXPECT_EQ(view.NumNodes(), back->NumNodes());
  EXPECT_EQ(view.NumEdges(), back->NumEdges());
  EXPECT_EQ(view.NumTransitions(), back->NumTransitions());
  EXPECT_EQ(view.start(), back->start());
  EXPECT_EQ(view.final(), back->final());
  EXPECT_EQ(view.TopologicalOrder(), back->TopologicalOrder());
  EXPECT_TRUE(view.MassBoundSafe());
  for (NodeId n = 0; n < view.NumNodes(); ++n) {
    const std::vector<EdgeId>& out = back->OutEdges(n);
    ASSERT_EQ(static_cast<size_t>(view.out_end(n) - view.out_begin(n)),
              out.size());
    for (size_t k = 0; k < out.size(); ++k) {
      EdgeId ve = view.out_begin(n)[k];
      const ViewEdge& e = view.edge(ve);
      const Edge& se = back->edge(out[k]);
      EXPECT_EQ(e.from, se.from);
      EXPECT_EQ(e.to, se.to);
      ASSERT_EQ(e.num_transitions, se.transitions.size());
      for (uint32_t t = 0; t < e.num_transitions; ++t) {
        const ViewTransition& vt = view.transition(e.first_transition + t);
        EXPECT_EQ(std::string(vt.label), se.transitions[t].label);
        EXPECT_EQ(vt.prob, se.transitions[t].prob);
      }
    }
  }
}

TEST(SfaViewTest, RejectsCorruptBlobs) {
  Sfa sfa = Figure1Sfa();
  const std::string blob = sfa.Serialize();
  SfaViewArena arena;
  SfaView view;

  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_FALSE(view.Decode(bad_magic, &arena).ok());

  // Every truncation must fail cleanly, never crash or accept.
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(view.Decode(std::string_view(blob.data(), len), &arena).ok())
        << "truncated at " << len;
  }

  std::string trailing = blob + "junk";
  EXPECT_FALSE(view.Decode(trailing, &arena).ok());

  // After all the failures, the arena still decodes a good blob.
  ASSERT_TRUE(view.Decode(blob, &arena).ok());
  EXPECT_EQ(view.NumNodes(), sfa.NumNodes());
}

}  // namespace
}  // namespace staccato
