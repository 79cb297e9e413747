// B+-tree over string keys with duplicate support and leaf chaining.
// Backs the inverted-index postings table (Section 5.3: "a relational table
// with a B+-tree on top of it"): the index probe looks up one term's
// postings.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace staccato::rdbms {

/// \brief In-memory B+-tree: ordered multimap<string, uint64_t>.
class BPlusTree {
 public:
  BPlusTree();

  void Insert(const std::string& key, uint64_t value);

  /// All values stored under `key`, in the order of the tree traversal,
  /// following the leaf chain across duplicate runs.
  std::vector<uint64_t> Lookup(const std::string& key) const;

  size_t size() const { return size_; }
  int height() const { return height_; }

 private:
  struct Node {
    bool leaf = true;
    std::vector<std::string> keys;
    // Leaf payloads, parallel to keys.
    std::vector<uint64_t> values;
    // Internal children: children.size() == keys.size() + 1.
    std::vector<std::unique_ptr<Node>> children;
    Node* next = nullptr;  // leaf chain
  };

  struct SplitResult {
    std::string sep;
    std::unique_ptr<Node> right;
  };

  static constexpr size_t kMaxKeys = 64;

  // Inserts into the subtree; returns a split if the node overflowed.
  std::unique_ptr<SplitResult> InsertInto(Node* node, const std::string& key,
                                          uint64_t value);

  const Node* FindLeaf(const std::string& key) const;

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  int height_ = 1;
};

}  // namespace staccato::rdbms
