// Thompson NFA for a parsed pattern: the first half of Dfa::Compile.
// Internal to the automata module; it has its own header only so the
// reference subset construction in tests/dfa_oracle_test.cc builds from
// the very automaton Dfa::Compile determinizes.
#pragma once

#include <vector>

#include "automata/dfa.h"
#include "automata/pattern.h"

namespace staccato {

/// \brief NFA with CharSet-labeled and epsilon transitions. State `start`
/// begins every match, state `accept` ends one.
struct Nfa {
  struct Trans {
    CharSet on;
    int to;
  };
  std::vector<std::vector<Trans>> trans;
  std::vector<std::vector<int>> eps;
  int start = 0;
  int accept = 0;

  int NumStates() const { return static_cast<int>(trans.size()); }
};

/// Builds the NFA of `pattern` under `mode`. kContains adds a Σ self-loop
/// on `start` and on `accept`, so `accept` is absorbing. A pattern with n
/// NFA-visible nodes yields O(n) states; the size is linear in the
/// pattern text.
Nfa BuildNfa(const Pattern& pattern, MatchMode mode);

}  // namespace staccato
