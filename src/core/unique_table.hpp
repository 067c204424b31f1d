/// \file unique_table.hpp
/// The canonicity store of the DD package: a bucket-chained hash table over
/// node *contents* (variable + successor edges), chaining intrusively through
/// Node::next.  Replaces the former std::unordered_map<UniqueKey, Node*>
/// tables: no key objects are materialized (the node is its own key), no
/// per-insert heap allocation, the content hash is computed once and reused
/// across find/insert, and growth rehashes by relinking the existing nodes.
///
/// The table also owns the GC sweep: dead (ref == 0) nodes are unlinked in
/// place and handed back to the caller (which returns them to the memory
/// manager), iterating until no more nodes die — freeing a node decrements
/// its children, which may become dead in turn.
#pragma once

#include "core/dd_node.hpp"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qadd::dd {

template <class NodeT> class UniqueTable {
public:
  using EdgeT = typename NodeT::EdgeT;
  static constexpr std::size_t kBranching = NodeT::kBranching;
  static constexpr std::size_t kDefaultInitialBuckets = 1024;
  /// Grow (double) when size exceeds buckets * kMaxLoadNumer / kMaxLoadDenom.
  static constexpr std::size_t kMaxLoadNumer = 3;
  static constexpr std::size_t kMaxLoadDenom = 4;

  explicit UniqueTable(std::size_t initialBuckets = kDefaultInitialBuckets)
      : buckets_(roundUpToPowerOfTwo(initialBuckets), nullptr) {}

  UniqueTable(const UniqueTable&) = delete;
  UniqueTable& operator=(const UniqueTable&) = delete;

  /// Content hash used for both find() and insert().
  [[nodiscard]] static std::uint64_t hash(Qubit var, const std::array<EdgeT, kBranching>& children) {
    return hashNodeContents(var, children);
  }

  /// The canonical node with exactly these contents, or nullptr.
  [[nodiscard]] NodeT* find(Qubit var, const std::array<EdgeT, kBranching>& children,
                            std::uint64_t contentHash) const {
    for (NodeT* node = buckets_[indexOf(contentHash)]; node != nullptr; node = node->next) {
      if (node->var == var && node->e == children) {
        return node;
      }
    }
    return nullptr;
  }

  /// True iff inserting `contentHash` now would lengthen an occupied bucket
  /// (the unique-table "collision" telemetry event).
  [[nodiscard]] bool wouldCollide(std::uint64_t contentHash) const {
    return buckets_[indexOf(contentHash)] != nullptr;
  }

  /// Link a (freshly initialized, not yet present) node into the table.
  /// Grows and rehashes first when the load factor would be exceeded.
  void insert(NodeT* node, std::uint64_t contentHash) {
    if ((size_ + 1) * kMaxLoadDenom > buckets_.size() * kMaxLoadNumer) {
      rehash(buckets_.size() * 2);
    }
    NodeT*& bucket = buckets_[indexOf(contentHash)];
    node->next = bucket;
    bucket = node;
    ++size_;
  }

  /// Number of nodes stored.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Number of hash buckets (a power of two).
  [[nodiscard]] std::size_t bucketCount() const { return buckets_.size(); }
  /// Load factor entries / buckets.
  [[nodiscard]] double loadFactor() const {
    return static_cast<double>(size()) / static_cast<double>(buckets_.size());
  }

  /// Visit every stored node.
  template <class F> void forEach(F&& visit) const {
    for (NodeT* node : buckets_) {
      for (; node != nullptr; node = node->next) {
        visit(node);
      }
    }
  }

  /// Remove every node whose ref count is (or, by cascading, becomes) zero.
  /// `release(node)` is called for each removed node after its children's ref
  /// counts have been decremented; the callee owns the storage from then on.
  /// Returns the number of nodes swept.
  template <class Release> std::size_t sweep(Release&& release) {
    std::size_t swept = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      for (NodeT*& bucket : buckets_) {
        NodeT** link = &bucket;
        while (*link != nullptr) {
          NodeT* node = *link;
          if (node->ref == 0) {
            *link = node->next;
            for (EdgeT& child : node->e) {
              if (child.node != nullptr) {
                assert(child.node->ref > 0);
                --child.node->ref;
              }
            }
            release(node);
            --size_;
            ++swept;
            changed = true;
          } else {
            link = &node->next;
          }
        }
      }
    }
    return swept;
  }

private:
  [[nodiscard]] std::size_t indexOf(std::uint64_t contentHash) const {
    return static_cast<std::size_t>(contentHash) & (buckets_.size() - 1);
  }

  [[nodiscard]] static std::size_t roundUpToPowerOfTwo(std::size_t n) {
    std::size_t p = 1;
    while (p < n) {
      p <<= 1U;
    }
    return p;
  }

  void rehash(std::size_t newBucketCount) {
    std::vector<NodeT*> old = std::move(buckets_);
    buckets_.assign(newBucketCount, nullptr);
    for (NodeT* node : old) {
      while (node != nullptr) {
        NodeT* next = node->next;
        NodeT*& bucket = buckets_[indexOf(hash(node->var, node->e))];
        node->next = bucket;
        bucket = node;
        node = next;
      }
    }
  }

  std::vector<NodeT*> buckets_;
  std::size_t size_ = 0;
};

} // namespace qadd::dd
