// Deterministic finite automata compiled from query patterns
// (Thompson NFA construction + subset construction), plus the two match
// semantics the paper uses:
//
//  * kExact:    L(pat) — the DFA accepts exactly the pattern language.
//  * kContains: Σ*·L(pat)·Σ* — the DFA accepts any string containing a
//               pattern match; this implements `LIKE '%pat%'`. Accepting
//               states are absorbing, which is what makes the probabilistic
//               DP over SFAs compute Pr[q] correctly.
//
// Compile runs the subset construction over character classes (the
// characters every NFA transition treats alike) with bitset subsets, and
// discovers states in the same order as the textbook per-character
// construction, so the numbering and the transition table equal that
// construction's (tests/dfa_oracle_test.cc keeps it as the reference).
// The Dfa keeps those classes: a byte-to-class map over all 256 byte
// values and one successor row per state with a column per class.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "automata/pattern.h"
#include "util/result.h"

namespace staccato {

using DfaState = int32_t;
inline constexpr DfaState kDfaDead = -1;

enum class MatchMode {
  kExact,
  kContains,
};

/// Compile rejects (InvalidArgument) a pattern whose Thompson NFA exceeds
/// kMaxNfaStates — the per-state ε-closure bitsets take O(states²/64)
/// words — or whose DFA would exceed kMaxDfaStates; the subset
/// construction is exponential in the worst case (`a\x^n` in contains
/// mode needs 3·2^n states). A literal of n characters needs 2n+3 NFA
/// states and at most about 2n DFA states, so literals up to 2,046
/// characters compile.
inline constexpr int kMaxNfaStates = 4096;
inline constexpr int kMaxDfaStates = 16384;

/// \brief Table-driven DFA over the printable-ASCII alphabet.
///
/// A step is two loads: the byte's character class, then the successor
/// table entry for (state, class). Classes are numbered in order of their
/// smallest character; one extra class, numbered last, holds every byte
/// outside the alphabet and leads from every state to kDfaDead. So the
/// table has at most kAlphabetSize + 1 columns.
class Dfa {
 public:
  /// Compiles a pattern under the given match semantics.
  static Result<Dfa> Compile(const Pattern& pattern, MatchMode mode);
  static Result<Dfa> Compile(const std::string& pattern_text, MatchMode mode);

  int NumStates() const { return static_cast<int>(accept_.size()); }
  DfaState start() const { return start_; }
  bool IsAccept(DfaState s) const { return s >= 0 && accept_[s]; }

  /// One transition step; kDfaDead is absorbing, and so is every byte
  /// outside the alphabet.
  DfaState Next(DfaState s, char c) const {
    if (s == kDfaDead) return kDfaDead;
    return table_[static_cast<size_t>(s) * num_classes_ +
                  class_of_[static_cast<uint8_t>(c)]];
  }

  /// Runs the DFA over a whole string from the start state.
  bool Matches(std::string_view s) const;

  /// Steps through each character of `s` from state `from`; returns the
  /// resulting state (possibly kDfaDead).
  DfaState Step(DfaState from, std::string_view s) const;

  MatchMode mode() const { return mode_; }

 private:
  MatchMode mode_ = MatchMode::kExact;
  DfaState start_ = 0;
  std::vector<uint8_t> accept_;
  std::array<uint8_t, 256> class_of_{};  // byte -> character class
  uint32_t num_classes_ = 0;             // columns of table_
  std::vector<DfaState> table_;          // NumStates x num_classes_
};

}  // namespace staccato
