#include "automata/pattern.h"

#include "util/strings.h"

namespace staccato {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<std::unique_ptr<PatternNode>> ParseAll() {
    auto seq = ParseSeq();
    if (!seq.ok()) return seq.status();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(
          StringPrintf("unexpected '%c' at offset %zu", text_[pos_], pos_));
    }
    return seq;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  Result<std::unique_ptr<PatternNode>> ParseSeq() {
    auto seq = std::make_unique<PatternNode>();
    seq->kind = PatternNode::Kind::kSeq;
    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      auto item = ParseItem();
      if (!item.ok()) return item.status();
      seq->children.push_back(std::move(*item));
    }
    return seq;
  }

  Result<std::unique_ptr<PatternNode>> ParseItem() {
    auto atom = ParseAtom();
    if (!atom.ok()) return atom;
    if (!AtEnd() && Peek() == '*') {
      ++pos_;
      auto star = std::make_unique<PatternNode>();
      star->kind = PatternNode::Kind::kStar;
      star->children.push_back(std::move(*atom));
      return star;
    }
    return atom;
  }

  Result<std::unique_ptr<PatternNode>> ParseAtom() {
    if (AtEnd()) return Status::InvalidArgument("pattern ends unexpectedly");
    char c = Peek();
    if (c == '(') {
      if (depth_ == kMaxGroupDepth) {
        return Status::InvalidArgument(StringPrintf(
            "groups nest deeper than %d at offset %zu", kMaxGroupDepth, pos_));
      }
      ++pos_;
      ++depth_;
      auto alt = std::make_unique<PatternNode>();
      alt->kind = PatternNode::Kind::kAlt;
      while (true) {
        auto seq = ParseSeq();
        if (!seq.ok()) return seq.status();
        alt->children.push_back(std::move(*seq));
        if (AtEnd()) return Status::InvalidArgument("unterminated group");
        if (Peek() == '|') {
          ++pos_;
          continue;
        }
        if (Peek() == ')') {
          ++pos_;
          --depth_;
          break;
        }
        return Status::InvalidArgument("malformed group");
      }
      if (alt->children.size() == 1) return std::move(alt->children[0]);
      return alt;
    }
    if (c == '\\') {
      ++pos_;
      if (AtEnd()) return Status::InvalidArgument("dangling backslash");
      char esc = text_[pos_++];
      auto node = std::make_unique<PatternNode>();
      node->kind = PatternNode::Kind::kChar;
      switch (esc) {
        case 'd':
          node->chars = CharSet::Digits();
          break;
        case 'x':
          node->chars = CharSet::Any();
          break;
        default:
          if (!IsAlphabetChar(esc)) {
            return Status::InvalidArgument("escaped character outside alphabet");
          }
          node->chars = CharSet::Single(esc);
          break;
      }
      return node;
    }
    if (c == '*' || c == ')' || c == '|') {
      return Status::InvalidArgument(
          StringPrintf("unexpected '%c' at offset %zu", c, pos_));
    }
    if (!IsAlphabetChar(c)) {
      return Status::InvalidArgument("pattern character outside alphabet");
    }
    ++pos_;
    auto node = std::make_unique<PatternNode>();
    node->kind = PatternNode::Kind::kChar;
    node->chars = CharSet::Single(c);
    return node;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< groups open at pos_
};

// A node is literal if it is a kSeq of single-character kChar nodes.
bool NodeIsLiteral(const PatternNode& n, std::string* out) {
  switch (n.kind) {
    case PatternNode::Kind::kChar:
      if (n.chars.Count() != 1) return false;
      for (int i = 0; i < kAlphabetSize; ++i) {
        if (n.chars.TestIndex(i)) {
          out->push_back(IndexChar(i));
          return true;
        }
      }
      return false;
    case PatternNode::Kind::kSeq:
      for (const auto& c : n.children) {
        if (!NodeIsLiteral(*c, out)) return false;
      }
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<Pattern> Pattern::Parse(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty pattern");
  Parser parser(text);
  auto root = parser.ParseAll();
  if (!root.ok()) return root.status();
  Pattern p;
  p.text_ = text;
  p.root_ = std::move(*root);
  std::string lit;
  p.literal_ = NodeIsLiteral(*p.root_, &lit);
  if (p.literal_) {
    p.literal_prefix_ = lit;
  } else {
    // Maximal literal prefix: walk the top-level sequence collecting
    // single-character nodes until the first non-literal construct.
    p.literal_prefix_.clear();
    const PatternNode& r = *p.root_;
    if (r.kind == PatternNode::Kind::kSeq) {
      for (const auto& c : r.children) {
        std::string piece;
        if (c->kind == PatternNode::Kind::kChar && NodeIsLiteral(*c, &piece)) {
          p.literal_prefix_ += piece;
        } else {
          break;
        }
      }
    }
  }
  return p;
}

std::string Pattern::AnchorTerm() const {
  std::string token;
  for (char c : literal_prefix_) {
    if (c == ' ') break;
    token.push_back(c);
  }
  return ToLowerAscii(token);
}

}  // namespace staccato
