#include "rdbms/btree.h"

#include <algorithm>

namespace staccato::rdbms {

BPlusTree::BPlusTree() : root_(std::make_unique<Node>()) {}

std::unique_ptr<BPlusTree::SplitResult> BPlusTree::InsertInto(
    Node* node, const std::string& key, uint64_t value) {
  if (node->leaf) {
    auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
    size_t pos = static_cast<size_t>(it - node->keys.begin());
    node->keys.insert(it, key);
    node->values.insert(node->values.begin() + static_cast<long>(pos), value);
    if (node->keys.size() <= kMaxKeys) return nullptr;
    // Split leaf: right half moves to a new node; separator is the right
    // node's first key.
    auto right = std::make_unique<Node>();
    size_t mid = node->keys.size() / 2;
    right->keys.assign(node->keys.begin() + static_cast<long>(mid), node->keys.end());
    right->values.assign(node->values.begin() + static_cast<long>(mid),
                         node->values.end());
    node->keys.resize(mid);
    node->values.resize(mid);
    right->next = node->next;
    node->next = right.get();
    auto split = std::make_unique<SplitResult>();
    split->sep = right->keys.front();
    split->right = std::move(right);
    return split;
  }
  // Internal: route right of equal separators so duplicate runs stay packed.
  size_t idx = static_cast<size_t>(
      std::upper_bound(node->keys.begin(), node->keys.end(), key) -
      node->keys.begin());
  auto split = InsertInto(node->children[idx].get(), key, value);
  if (split == nullptr) return nullptr;
  node->keys.insert(node->keys.begin() + static_cast<long>(idx), split->sep);
  node->children.insert(node->children.begin() + static_cast<long>(idx) + 1,
                        std::move(split->right));
  if (node->keys.size() <= kMaxKeys) return nullptr;
  // Split internal node: middle key moves up.
  auto right = std::make_unique<Node>();
  right->leaf = false;
  size_t mid = node->keys.size() / 2;
  auto up = std::make_unique<SplitResult>();
  up->sep = node->keys[mid];
  right->keys.assign(node->keys.begin() + static_cast<long>(mid) + 1,
                     node->keys.end());
  for (size_t i = mid + 1; i < node->children.size(); ++i) {
    right->children.push_back(std::move(node->children[i]));
  }
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  up->right = std::move(right);
  return up;
}

void BPlusTree::Insert(const std::string& key, uint64_t value) {
  auto split = InsertInto(root_.get(), key, value);
  if (split != nullptr) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->keys.push_back(std::move(split->sep));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
    ++height_;
  }
  ++size_;
}

const BPlusTree::Node* BPlusTree::FindLeaf(const std::string& key) const {
  const Node* node = root_.get();
  while (!node->leaf) {
    // Descend left of equal separators so the scan starts at the first
    // occurrence of a duplicate run.
    size_t idx = static_cast<size_t>(
        std::lower_bound(node->keys.begin(), node->keys.end(), key) -
        node->keys.begin());
    node = node->children[idx].get();
  }
  return node;
}

std::vector<uint64_t> BPlusTree::Lookup(const std::string& key) const {
  std::vector<uint64_t> out;
  // A duplicate run may spill into the next leaf: follow the chain until
  // another key shows up.
  for (const Node* leaf = FindLeaf(key); leaf != nullptr; leaf = leaf->next) {
    auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
    for (size_t i = static_cast<size_t>(it - leaf->keys.begin());
         i < leaf->keys.size(); ++i) {
      if (leaf->keys[i] != key) return out;
      out.push_back(leaf->values[i]);
    }
  }
  return out;
}

}  // namespace staccato::rdbms
