// The query pattern language of the paper: keywords plus the regex
// constructs used throughout Section 5 — `\d` (any digit), `\x` (any
// character), alternation groups `(8|9)`, and Kleene star `(\x)*`.
//
// A pattern is parsed into a small AST; `dfa.h` compiles the AST to a DFA
// with either exact-match or contains-match (`LIKE '%pat%'`) semantics.
#pragma once

#include <bitset>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"

namespace staccato {

/// Printable ASCII alphabet used by the OCR SFAs: characters 32..126.
inline constexpr int kAlphabetSize = 95;
inline constexpr char kAlphabetMin = 32;
inline constexpr char kAlphabetMax = 126;

inline bool IsAlphabetChar(char c) { return c >= kAlphabetMin && c <= kAlphabetMax; }
inline int CharIndex(char c) { return c - kAlphabetMin; }
inline char IndexChar(int i) { return static_cast<char>(i + kAlphabetMin); }

/// \brief Set of alphabet characters (bitset over printable ASCII).
class CharSet {
 public:
  static CharSet Single(char c) {
    CharSet s;
    s.bits_.set(CharIndex(c));
    return s;
  }
  static CharSet Digits() {
    CharSet s;
    for (char c = '0'; c <= '9'; ++c) s.bits_.set(CharIndex(c));
    return s;
  }
  static CharSet Any() {
    CharSet s;
    s.bits_.set();
    return s;
  }

  bool Test(char c) const { return IsAlphabetChar(c) && bits_.test(CharIndex(c)); }
  bool TestIndex(int i) const { return bits_.test(i); }
  void Set(char c) { bits_.set(CharIndex(c)); }
  size_t Count() const { return bits_.count(); }
  bool operator==(const CharSet& o) const { return bits_ == o.bits_; }

 private:
  std::bitset<kAlphabetSize> bits_;
};

/// \brief Pattern AST node.
struct PatternNode {
  enum class Kind { kChar, kSeq, kAlt, kStar };

  Kind kind;
  CharSet chars;                                      // kChar
  std::vector<std::unique_ptr<PatternNode>> children; // kSeq / kAlt / kStar(1)
};

/// Parse rejects (InvalidArgument) groups nested deeper than this: the
/// parser, the NFA builder and the AST's destructor all recurse once per
/// level. Every query the paper uses nests at most one group deep.
inline constexpr int kMaxGroupDepth = 64;

/// \brief A parsed query pattern.
///
/// Grammar (whitespace significant):
///   pattern := seq
///   seq     := item*
///   item    := atom '*'?
///   atom    := literal | '\d' | '\x' | '\\' | '(' seq ('|' seq)* ')'
/// Literals are any printable character except `( ) | * \`. Groups nest
/// at most kMaxGroupDepth deep.
class Pattern {
 public:
  static Result<Pattern> Parse(const std::string& text);

  const PatternNode& root() const { return *root_; }
  const std::string& text() const { return text_; }

  /// True if the pattern contains no wildcard/alternation/star constructs.
  bool IsLiteral() const { return literal_; }

  /// The maximal literal prefix of the pattern (empty if it starts with a
  /// wildcard). Used for left-anchored index lookups (Section 4).
  const std::string& LiteralPrefix() const { return literal_prefix_; }

  /// The first whitespace-delimited token of the literal prefix, lower-cased;
  /// this is the candidate dictionary anchor term. Empty if none.
  std::string AnchorTerm() const;

 private:
  std::string text_;
  std::unique_ptr<PatternNode> root_;
  bool literal_ = false;
  std::string literal_prefix_;
};

}  // namespace staccato
