// Dictionary trie automaton (Section 4): a prefix trie over the user's
// dictionary terms, used as the DFA the index-construction dynamic program
// runs against. Final states map back to term ids.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/pattern.h"
#include "util/result.h"

namespace staccato {

using TermId = uint32_t;
inline constexpr TermId kInvalidTerm = UINT32_MAX;

/// \brief Prefix-trie DFA over a dictionary of terms.
///
/// States are trie nodes (0 = root). `Step` returns kDead on mismatch; the
/// index builder restarts at every offset, exactly as Algorithm 4 does with
/// its (state=0, offset) pairs. Matching is case-insensitive: terms are
/// stored lower-cased and input characters are folded before lookup.
class DictionaryTrie {
 public:
  static constexpr int32_t kDead = -1;

  /// Builds a trie from terms; duplicates are collapsed. Terms are
  /// lower-cased; non-alphabet characters are rejected.
  static Result<DictionaryTrie> Build(const std::vector<std::string>& terms);

  int32_t root() const { return 0; }
  size_t NumStates() const { return nodes_.size(); }
  size_t NumTerms() const { return terms_.size(); }

  /// One character step (case-folded); kDead if no trie child.
  int32_t Step(int32_t state, char c) const {
    if (state < 0) return kDead;
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (!IsAlphabetChar(c)) return kDead;
    const auto& node = nodes_[state];
    auto it = node.children.find(c);
    return it == node.children.end() ? kDead : it->second;
  }

  /// Term finishing at this state, or kInvalidTerm.
  TermId TermAt(int32_t state) const {
    return state < 0 ? kInvalidTerm : nodes_[state].term;
  }

  const std::string& term(TermId id) const { return terms_[id]; }
  /// Every term, by TermId: Build of this list rebuilds this trie.
  const std::vector<std::string>& terms() const { return terms_; }

  /// Looks up a term (case-insensitive); kInvalidTerm if absent.
  TermId Find(const std::string& term) const;

 private:
  struct Node {
    std::unordered_map<char, int32_t> children;
    TermId term = kInvalidTerm;
  };

  std::vector<Node> nodes_;
  std::vector<std::string> terms_;
};

/// Builds the default English-like dictionary used by the experiments:
/// the vocabulary is harvested from a clean text corpus (the paper uses the
/// Corncob word list; we use the generator vocabulary).
std::vector<std::string> BuildDictionaryFromCorpus(
    const std::vector<std::string>& lines, size_t min_length = 3);

}  // namespace staccato
