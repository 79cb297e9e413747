#include "automata/dfa.h"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "automata/nfa.h"
#include "util/strings.h"

namespace staccato {

namespace {

/// Sets of NFA states as fixed-width bitsets, `words` uint64 words each,
/// stored back to back in one vector.
struct BitRows {
  size_t words = 0;
  std::vector<uint64_t> bits;

  uint64_t* row(size_t i) { return bits.data() + i * words; }
  const uint64_t* row(size_t i) const { return bits.data() + i * words; }
};

inline bool TestBit(const uint64_t* row, int s) {
  return (row[s >> 6] >> (s & 63)) & 1;
}
inline void SetBit(uint64_t* row, int s) {
  row[s >> 6] |= uint64_t{1} << (s & 63);
}

/// Row i is the ε-closure of NFA state i.
BitRows EpsClosures(const Nfa& nfa, size_t words) {
  const int n = nfa.NumStates();
  BitRows closure{words, std::vector<uint64_t>(static_cast<size_t>(n) * words)};
  std::vector<int> stack;
  for (int s = 0; s < n; ++s) {
    uint64_t* row = closure.row(static_cast<size_t>(s));
    SetBit(row, s);
    stack.assign(1, s);
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (int v : nfa.eps[u]) {
        if (!TestBit(row, v)) {
          SetBit(row, v);
          stack.push_back(v);
        }
      }
    }
  }
  return closure;
}

/// Partitions the alphabet into classes of characters that every NFA
/// transition treats alike: `class_of[ci]` is character ci's class, and
/// classes are numbered in order of their smallest character. Returns the
/// class count.
int CharClasses(const Nfa& nfa, std::array<int, kAlphabetSize>* class_of) {
  class_of->fill(0);
  int num_classes = 1;
  std::array<int, 2 * kAlphabetSize> split{};
  for (const auto& out : nfa.trans) {
    for (const Nfa::Trans& t : out) {
      if (t.on.Count() == static_cast<size_t>(kAlphabetSize)) continue;
      // Refine every class by membership in t.on, renumbering in order of
      // first appearance so the numbering stays by smallest character.
      split.fill(-1);
      int next = 0;
      for (int ci = 0; ci < kAlphabetSize; ++ci) {
        int& id = split[2 * (*class_of)[ci] + (t.on.TestIndex(ci) ? 1 : 0)];
        if (id < 0) id = next++;
        (*class_of)[ci] = id;
      }
      num_classes = next;
    }
  }
  return num_classes;
}

}  // namespace

Result<Dfa> Dfa::Compile(const std::string& pattern_text, MatchMode mode) {
  auto pat = Pattern::Parse(pattern_text);
  if (!pat.ok()) return pat.status();
  return Compile(*pat, mode);
}

Result<Dfa> Dfa::Compile(const Pattern& pattern, MatchMode mode) {
  const Nfa nfa = BuildNfa(pattern, mode);
  const int n = nfa.NumStates();
  if (n > kMaxNfaStates) {
    return Status::InvalidArgument(StringPrintf(
        "pattern too large: its NFA has %d states (limit %d)", n,
        kMaxNfaStates));
  }
  const size_t words = (static_cast<size_t>(n) + 63) / 64;
  const BitRows closure = EpsClosures(nfa, words);

  std::array<int, kAlphabetSize> class_of{};
  const int num_classes = CharClasses(nfa, &class_of);
  // Per class: its smallest character (which stands for the whole class)
  // and the NFA states with a transition on it.
  std::vector<int> rep(static_cast<size_t>(num_classes), -1);
  for (int ci = 0; ci < kAlphabetSize; ++ci) {
    if (rep[static_cast<size_t>(class_of[ci])] < 0) {
      rep[static_cast<size_t>(class_of[ci])] = ci;
    }
  }
  BitRows moves{words, std::vector<uint64_t>(
                           static_cast<size_t>(num_classes) * words)};
  for (int s = 0; s < n; ++s) {
    for (const Nfa::Trans& t : nfa.trans[s]) {
      for (int k = 0; k < num_classes; ++k) {
        if (t.on.TestIndex(rep[static_cast<size_t>(k)])) {
          SetBit(moves.row(static_cast<size_t>(k)), s);
        }
      }
    }
  }

  // Subset construction. State i's subset is row i of `subsets`; the hash
  // set maps a subset to its id by hashing and comparing rows. A candidate
  // successor is appended as the next row and dropped again if it already
  // exists.
  BitRows subsets{words, {}};
  auto row_hash = [&subsets](DfaState id) {
    const uint64_t* r = subsets.row(static_cast<size_t>(id));
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (size_t w = 0; w < subsets.words; ++w) {
      h = (h ^ r[w]) * 0xff51afd7ed558ccdull;
      h ^= h >> 32;
    }
    return static_cast<size_t>(h);
  };
  auto row_eq = [&subsets](DfaState a, DfaState b) {
    return std::equal(subsets.row(static_cast<size_t>(a)),
                      subsets.row(static_cast<size_t>(a)) + subsets.words,
                      subsets.row(static_cast<size_t>(b)));
  };
  std::unordered_set<DfaState, decltype(row_hash), decltype(row_eq)> ids(
      64, row_hash, row_eq);

  subsets.bits.assign(closure.row(static_cast<size_t>(nfa.start)),
                      closure.row(static_cast<size_t>(nfa.start)) + words);
  ids.insert(0);
  DfaState num_states = 1;

  Dfa dfa;
  dfa.mode_ = mode;
  dfa.start_ = 0;
  // The alphabet's classes, then the dead class every other byte maps to.
  dfa.num_classes_ = static_cast<uint32_t>(num_classes) + 1;
  dfa.class_of_.fill(static_cast<uint8_t>(num_classes));
  for (int ci = 0; ci < kAlphabetSize; ++ci) {
    dfa.class_of_[static_cast<uint8_t>(IndexChar(ci))] =
        static_cast<uint8_t>(class_of[ci]);
  }
  std::vector<DfaState> succ(static_cast<size_t>(num_classes));
  for (DfaState cur = 0; cur < num_states; ++cur) {
    // Classes in order of their smallest character: the per-character
    // construction meets each new subset first at that character, so new
    // states get the same ids.
    for (int k = 0; k < num_classes; ++k) {
      subsets.bits.resize(subsets.bits.size() + words, 0);
      uint64_t* next = subsets.row(static_cast<size_t>(num_states));
      const uint64_t* from = subsets.row(static_cast<size_t>(cur));
      const uint64_t* on = moves.row(static_cast<size_t>(k));
      const char c = IndexChar(rep[static_cast<size_t>(k)]);
      bool empty = true;
      for (size_t w = 0; w < words; ++w) {
        for (uint64_t m = from[w] & on[w]; m != 0; m &= m - 1) {
          const int s = static_cast<int>(w * 64) + __builtin_ctzll(m);
          for (const Nfa::Trans& t : nfa.trans[s]) {
            // A target already in `next` brought its closure along.
            if (!t.on.Test(c) || TestBit(next, t.to)) continue;
            const uint64_t* cl = closure.row(static_cast<size_t>(t.to));
            for (size_t x = 0; x < words; ++x) next[x] |= cl[x];
            empty = false;
          }
        }
      }
      if (empty) {
        subsets.bits.resize(subsets.bits.size() - words);
        succ[static_cast<size_t>(k)] = kDfaDead;
        continue;
      }
      auto [it, inserted] = ids.insert(num_states);
      if (inserted) {
        if (num_states == kMaxDfaStates) {
          return Status::InvalidArgument(StringPrintf(
              "pattern too complex: its DFA exceeds %d states",
              kMaxDfaStates));
        }
        ++num_states;
      } else {
        subsets.bits.resize(subsets.bits.size() - words);
      }
      succ[static_cast<size_t>(k)] = *it;
    }
    dfa.table_.insert(dfa.table_.end(), succ.begin(), succ.end());
    dfa.table_.push_back(kDfaDead);
  }
  dfa.accept_.resize(static_cast<size_t>(num_states));
  for (DfaState i = 0; i < num_states; ++i) {
    dfa.accept_[static_cast<size_t>(i)] =
        TestBit(subsets.row(static_cast<size_t>(i)), nfa.accept) ? 1 : 0;
  }
  return dfa;
}

bool Dfa::Matches(std::string_view s) const {
  DfaState st = Step(start_, s);
  return IsAccept(st);
}

DfaState Dfa::Step(DfaState from, std::string_view s) const {
  DfaState st = from;
  for (char c : s) {
    if (st == kDfaDead) return kDfaDead;
    st = Next(st, c);
  }
  return st;
}

}  // namespace staccato
