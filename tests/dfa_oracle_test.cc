// Differential tests for Dfa::Compile against two oracles:
//  * a simple backtracking matcher over the pattern AST, swept over random
//    patterns and random inputs with TEST_P;
//  * the textbook subset construction (std::set subsets keyed in a
//    std::map, one character at a time), which Compile must reproduce
//    table for table: same start, state count, accept flags and every
//    Next(s, c) — and kDfaDead for every byte outside the alphabet.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "automata/nfa.h"
#include "automata/pattern.h"
#include "ocr/corpus.h"
#include "util/random.h"

namespace staccato {
namespace {

// ---- Reference subset construction ------------------------------------------

struct ReferenceDfa {
  DfaState start = 0;
  std::vector<uint8_t> accept;
  std::vector<DfaState> table;  // states x kAlphabetSize

  int NumStates() const { return static_cast<int>(accept.size()); }
};

void EpsClosure(const Nfa& nfa, std::set<int>* states) {
  std::vector<int> stack(states->begin(), states->end());
  while (!stack.empty()) {
    int s = stack.back();
    stack.pop_back();
    for (int t : nfa.eps[s]) {
      if (states->insert(t).second) stack.push_back(t);
    }
  }
}

/// Breadth-first subset construction over all 95 characters in order: a
/// state's successors get ids in order of the first character reaching
/// them. No size limit; callers keep patterns small.
ReferenceDfa ReferenceCompile(const Pattern& pattern, MatchMode mode) {
  const Nfa nfa = BuildNfa(pattern, mode);
  ReferenceDfa dfa;
  std::map<std::set<int>, DfaState> ids;
  std::vector<std::set<int>> subsets;
  std::set<int> start_set{nfa.start};
  EpsClosure(nfa, &start_set);
  ids[start_set] = 0;
  subsets.push_back(start_set);
  for (size_t cur = 0; cur < subsets.size(); ++cur) {
    const std::set<int> state_set = subsets[cur];
    dfa.table.resize(subsets.size() * kAlphabetSize, kDfaDead);
    for (int ci = 0; ci < kAlphabetSize; ++ci) {
      const char c = IndexChar(ci);
      std::set<int> next;
      for (int s : state_set) {
        for (const auto& t : nfa.trans[s]) {
          if (t.on.Test(c)) next.insert(t.to);
        }
      }
      if (next.empty()) continue;
      EpsClosure(nfa, &next);
      auto [it, inserted] =
          ids.emplace(std::move(next), static_cast<DfaState>(subsets.size()));
      if (inserted) {
        subsets.push_back(it->first);
        dfa.table.resize(subsets.size() * kAlphabetSize, kDfaDead);
      }
      dfa.table[cur * kAlphabetSize + static_cast<size_t>(ci)] = it->second;
    }
  }
  for (const std::set<int>& s : subsets) {
    dfa.accept.push_back(s.count(nfa.accept) ? 1 : 0);
  }
  return dfa;
}

/// Compile(text, mode) must equal the reference construction table for
/// table. Returns the state count (0 on a failed parse or compile).
int ExpectSameTables(const std::string& text, MatchMode mode) {
  const std::string what =
      "pattern '" + text +
      (mode == MatchMode::kContains ? "' (contains)" : "' (exact)");
  auto pat = Pattern::Parse(text);
  EXPECT_TRUE(pat.ok()) << what << ": " << pat.status().ToString();
  if (!pat.ok()) return 0;
  auto dfa = Dfa::Compile(*pat, mode);
  EXPECT_TRUE(dfa.ok()) << what << ": " << dfa.status().ToString();
  if (!dfa.ok()) return 0;
  const ReferenceDfa ref = ReferenceCompile(*pat, mode);
  EXPECT_EQ(dfa->start(), ref.start) << what;
  EXPECT_EQ(dfa->NumStates(), ref.NumStates()) << what;
  if (dfa->NumStates() != ref.NumStates()) return 0;
  int mismatches = 0;
  for (DfaState s = 0; s < ref.NumStates(); ++s) {
    EXPECT_EQ(dfa->IsAccept(s), ref.accept[static_cast<size_t>(s)] != 0)
        << what << " state " << s;
    for (int ci = 0; ci < kAlphabetSize; ++ci) {
      const DfaState want =
          ref.table[static_cast<size_t>(s) * kAlphabetSize +
                    static_cast<size_t>(ci)];
      const DfaState got = dfa->Next(s, IndexChar(ci));
      if (got != want && mismatches++ < 5) {
        ADD_FAILURE() << what << ": Next(" << s << ", '" << IndexChar(ci)
                      << "') = " << got << ", reference " << want;
      }
    }
    // The 161 bytes outside the alphabet all lead to the dead state.
    for (int b = 0; b < 256; ++b) {
      if (b >= kAlphabetMin && b <= kAlphabetMax) continue;
      const DfaState got = dfa->Next(s, static_cast<char>(b));
      if (got != kDfaDead && mismatches++ < 5) {
        ADD_FAILURE() << what << ": Next(" << s << ", byte " << b
                      << ") = " << got << ", want kDfaDead";
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << what;
  return dfa->NumStates();
}

void ExpectSameTablesBothModes(const std::string& text) {
  ExpectSameTables(text, MatchMode::kExact);
  ExpectSameTables(text, MatchMode::kContains);
}

// Backtracking reference matcher: returns true if node matches s[pos..)
// and calls cont on each possible end position.
bool MatchNode(const PatternNode& node, const std::string& s, size_t pos,
               const std::function<bool(size_t)>& cont, int depth = 0) {
  if (depth > 64) return false;  // guard (patterns here are tiny)
  switch (node.kind) {
    case PatternNode::Kind::kChar:
      if (pos < s.size() && node.chars.Test(s[pos])) return cont(pos + 1);
      return false;
    case PatternNode::Kind::kSeq: {
      std::function<bool(size_t, size_t)> step = [&](size_t idx, size_t p) -> bool {
        if (idx == node.children.size()) return cont(p);
        return MatchNode(*node.children[idx], s, p,
                         [&](size_t np) { return step(idx + 1, np); }, depth + 1);
      };
      return step(0, pos);
    }
    case PatternNode::Kind::kAlt:
      for (const auto& child : node.children) {
        if (MatchNode(*child, s, pos, cont, depth + 1)) return true;
      }
      return false;
    case PatternNode::Kind::kStar: {
      // Zero or more repetitions; bounded by remaining length.
      std::function<bool(size_t)> rep = [&](size_t p) -> bool {
        if (cont(p)) return true;
        return MatchNode(*node.children[0], s, p,
                         [&](size_t np) { return np > p && rep(np); },
                         depth + 1);
      };
      return rep(pos);
    }
  }
  return false;
}

bool OracleContains(const Pattern& pat, const std::string& s) {
  for (size_t start = 0; start <= s.size(); ++start) {
    if (MatchNode(pat.root(), s, start, [](size_t) { return true; })) {
      return true;
    }
  }
  return false;
}

bool OracleExact(const Pattern& pat, const std::string& s) {
  return MatchNode(pat.root(), s, 0, [&](size_t p) { return p == s.size(); });
}

class DfaOracle : public ::testing::TestWithParam<uint64_t> {};

std::string RandomPattern(Rng* rng) {
  static const std::vector<std::string> atoms = {
      "a", "b", "c", "1", "\\d", "\\x", "(a|b)", "(1|2|3)", "(\\x)*", "(ab|c)"};
  size_t n = static_cast<size_t>(rng->UniformInt(1, 4));
  std::string p;
  for (size_t i = 0; i < n; ++i) p += rng->Choice(atoms);
  return p;
}

std::string RandomInput(Rng* rng) {
  static const std::string alphabet = "abc123 xy";
  size_t n = static_cast<size_t>(rng->UniformInt(0, 8));
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    s.push_back(alphabet[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))]);
  }
  return s;
}

TEST_P(DfaOracle, ContainsAgrees) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    std::string ptext = RandomPattern(&rng);
    auto pat = Pattern::Parse(ptext);
    ASSERT_TRUE(pat.ok()) << ptext;
    auto dfa = Dfa::Compile(*pat, MatchMode::kContains);
    ASSERT_TRUE(dfa.ok()) << ptext;
    for (int si = 0; si < 30; ++si) {
      std::string input = RandomInput(&rng);
      EXPECT_EQ(dfa->Matches(input), OracleContains(*pat, input))
          << "pattern '" << ptext << "' input '" << input << "'";
    }
  }
}

TEST_P(DfaOracle, ExactAgrees) {
  Rng rng(GetParam() * 131 + 17);
  for (int trial = 0; trial < 40; ++trial) {
    std::string ptext = RandomPattern(&rng);
    auto pat = Pattern::Parse(ptext);
    ASSERT_TRUE(pat.ok()) << ptext;
    auto dfa = Dfa::Compile(*pat, MatchMode::kExact);
    ASSERT_TRUE(dfa.ok()) << ptext;
    for (int si = 0; si < 30; ++si) {
      std::string input = RandomInput(&rng);
      EXPECT_EQ(dfa->Matches(input), OracleExact(*pat, input))
          << "pattern '" << ptext << "' input '" << input << "'";
    }
  }
}

// The class-based construction reproduces the reference tables on the
// same random patterns the matcher oracle sweeps.
TEST_P(DfaOracle, RandomPatternTablesMatchReference) {
  for (uint64_t seed : {GetParam(), GetParam() * 131 + 17}) {
    Rng rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
      ExpectSameTablesBothModes(RandomPattern(&rng));
      // Draw the inputs the matcher tests draw, to stay on their stream.
      for (int si = 0; si < 30; ++si) (void)RandomInput(&rng);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfaOracle, ::testing::Range<uint64_t>(0, 6));

TEST(DfaTableOracle, TableSixPatternsMatchReference) {
  for (DatasetKind kind : {DatasetKind::kCongressActs,
                           DatasetKind::kLiterature, DatasetKind::kDbPapers}) {
    for (const std::string& q : DatasetQueries(kind)) {
      ExpectSameTablesBothModes(q);
    }
  }
}

// Every pattern the automata tests, the Figure 7/17 benches and the
// examples compile.
TEST(DfaTableOracle, TestBenchAndExamplePatternsMatchReference) {
  for (const char* q :
       {"Ford", "ab", "U.S.C. 2\\d\\d\\d", "Public Law (8|9)\\d",
        "Sec(\\x)*\\d", "\\x\\x\\x\\d\\d", "(\\x)*", "a\\*b",
        "President", "(F|T)", "(F|T)o", "(a|e)n", "F0 rd", "0m", "xyzzy",
        "an", "abc", "public", "Trio", "aa", "xy", "x", "F",
        // Figure 7 and Figure 17.
        "acts", "defense", "employment", "appropriated", "representatives",
        "U.S.C. 2", "U.S.C. 2\\d", "U.S.C. 2\\d\\d", "U(\\x)*S.C. 2",
        "U(\\x)*S(\\x)*C. 2", "U(\\x)*S(\\x)*C(\\x)* 2",
        // Examples.
        "Kerouac", "Brinkmann", "Third Reich", "19\\d\\d, \\d\\d"}) {
    ExpectSameTablesBothModes(q);
  }
}

// A literal of 40 characters has 83 NFA states, so every subset spans two
// bitset words.
TEST(DfaTableOracle, MultiWordSubsetsMatchReference) {
  const std::string lit = "The quick brown fox jumps over a lazy dog";
  ASSERT_GE(lit.size(), 31u);
  ExpectSameTablesBothModes(lit);
  ExpectSameTablesBothModes(lit + "(\\x)*(1|2|3)\\d");
  ExpectSameTablesBothModes("a\\x\\x\\x\\x\\x" + lit);
}

// ---- Size limits ------------------------------------------------------------

std::string Nested(int depth, const std::string& core) {
  return std::string(static_cast<size_t>(depth), '(') + core +
         std::string(static_cast<size_t>(depth), ')');
}

/// `a` followed by n `\x` wildcards.
std::string AThenAnyChars(int n) {
  std::string p = "a";
  for (int i = 0; i < n; ++i) p += "\\x";
  return p;
}

TEST(DfaLimits, GroupNestingLimit) {
  EXPECT_TRUE(Pattern::Parse(Nested(kMaxGroupDepth, "a")).ok());
  auto past = Pattern::Parse(Nested(kMaxGroupDepth + 1, "a"));
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
  // Deep enough to overflow the stack of a parser that recursed per group.
  auto deep = Dfa::Compile(Nested(100000, "a"), MatchMode::kContains);
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  // Sequential groups do not nest.
  std::string flat;
  for (int i = 0; i < 200; ++i) flat += "(a|b)";
  EXPECT_TRUE(Pattern::Parse(flat).ok());
}

TEST(DfaLimits, NfaStateLimit) {
  // A literal of n characters has 2n + 3 NFA states.
  const int n_max = (kMaxNfaStates - 3) / 2;
  auto literal = [](int n) {
    std::string s;
    for (int i = 0; i < n; ++i) s.push_back(static_cast<char>('a' + i % 26));
    return s;
  };
  auto inside = Dfa::Compile(literal(n_max), MatchMode::kContains);
  ASSERT_TRUE(inside.ok()) << inside.status().ToString();
  EXPECT_TRUE(inside->Matches("xx" + literal(n_max) + "yy"));
  auto past = Dfa::Compile(literal(n_max + 1), MatchMode::kContains);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
  // A 1,000-character literal compiles.
  EXPECT_TRUE(Dfa::Compile(literal(1000), MatchMode::kExact).ok());
}

TEST(DfaLimits, DfaStateLimit) {
  // Exact-mode alternatives led by distinct characters share only the
  // start state. A branch `c(\\x)*a\\x^n` adds 2^(n+1) + 1 states (after c,
  // the last n+1 characters decide), and a literal branch of L characters
  // adds L, so this pattern needs 1 + 8193 + 4097 + 2049 + 1025 + L states.
  auto pattern = [](int literal_len) {
    return "(b(\\x)*" + AThenAnyChars(12) + "|c(\\x)*" + AThenAnyChars(11) +
           "|d(\\x)*" + AThenAnyChars(10) + "|e(\\x)*" + AThenAnyChars(9) +
           "|" + std::string(static_cast<size_t>(literal_len), 'z') +
           ")";
  };
  const int at_limit = kMaxDfaStates - 15365;
  auto inside = Dfa::Compile(pattern(at_limit), MatchMode::kExact);
  ASSERT_TRUE(inside.ok()) << inside.status().ToString();
  EXPECT_EQ(inside->NumStates(), kMaxDfaStates);
  auto past = Dfa::Compile(pattern(at_limit + 1), MatchMode::kExact);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);

  // Contains-mode `a\x^n` needs 3 * 2^n states.
  auto twelve = Dfa::Compile(AThenAnyChars(12), MatchMode::kContains);
  ASSERT_TRUE(twelve.ok()) << twelve.status().ToString();
  EXPECT_EQ(twelve->NumStates(), 12288);
  // The exponential cases fail as soon as the limit is reached.
  for (int n : {14, 20, 40}) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = Dfa::Compile(AThenAnyChars(n), MatchMode::kContains);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    ASSERT_FALSE(r.ok()) << "n=" << n;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_LT(ms, 1000.0) << "n=" << n;
  }
}

}  // namespace
}  // namespace staccato
