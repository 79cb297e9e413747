#include "automata/nfa.h"

namespace staccato {

namespace {

int AddState(Nfa* nfa) {
  nfa->trans.emplace_back();
  nfa->eps.emplace_back();
  return nfa->NumStates() - 1;
}

struct Fragment {
  int in;
  int out;
};

// Recursion depth is the pattern's AST depth, which Pattern::Parse bounds
// through its group-nesting limit.
Fragment BuildFragment(Nfa* nfa, const PatternNode& node) {
  switch (node.kind) {
    case PatternNode::Kind::kChar: {
      int a = AddState(nfa);
      int b = AddState(nfa);
      nfa->trans[a].push_back({node.chars, b});
      return {a, b};
    }
    case PatternNode::Kind::kSeq: {
      int a = AddState(nfa);
      int cur = a;
      for (const auto& child : node.children) {
        Fragment f = BuildFragment(nfa, *child);
        nfa->eps[cur].push_back(f.in);
        cur = f.out;
      }
      return {a, cur};
    }
    case PatternNode::Kind::kAlt: {
      int a = AddState(nfa);
      int b = AddState(nfa);
      for (const auto& child : node.children) {
        Fragment f = BuildFragment(nfa, *child);
        nfa->eps[a].push_back(f.in);
        nfa->eps[f.out].push_back(b);
      }
      return {a, b};
    }
    case PatternNode::Kind::kStar: {
      int a = AddState(nfa);
      int b = AddState(nfa);
      Fragment f = BuildFragment(nfa, *node.children[0]);
      nfa->eps[a].push_back(f.in);
      nfa->eps[f.out].push_back(b);
      nfa->eps[a].push_back(b);         // zero repetitions
      nfa->eps[f.out].push_back(f.in);  // loop
      return {a, b};
    }
  }
  return {0, 0};
}

}  // namespace

Nfa BuildNfa(const Pattern& pattern, MatchMode mode) {
  Nfa nfa;
  Fragment body = BuildFragment(&nfa, pattern.root());
  nfa.start = AddState(&nfa);
  nfa.accept = AddState(&nfa);
  nfa.eps[nfa.start].push_back(body.in);
  nfa.eps[body.out].push_back(nfa.accept);
  if (mode == MatchMode::kContains) {
    // Σ* on both sides; the accept state is absorbing.
    nfa.trans[nfa.start].push_back({CharSet::Any(), nfa.start});
    nfa.trans[nfa.accept].push_back({CharSet::Any(), nfa.accept});
  }
  return nfa;
}

}  // namespace staccato
