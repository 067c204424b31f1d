/// \file memory_manager.hpp
/// Chunked arena allocator for DD nodes.  Nodes are handed out from
/// geometrically growing chunks, so addresses are stable for the lifetime of
/// the manager (the unique table and the operation caches key on raw node
/// pointers), and freed nodes are recycled through an intrusive free list
/// threaded through Node::next — the same link the unique table uses for its
/// chains, which a freed node is by definition no longer part of.
///
/// This replaces the former per-node-type std::deque pools: one template,
/// both node arities, no per-element deque bookkeeping, and O(1)
/// allocate/free with zero heap traffic outside chunk growth.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <vector>

namespace qadd::dd {

template <class NodeT> class MemoryManager {
public:
  static constexpr std::size_t kDefaultInitialChunkSize = 2048;
  /// Chunks grow by 3/2 — large enough to amortize, small enough not to
  /// overshoot the working set by more than 50%.
  static constexpr std::size_t kGrowthNumerator = 3;
  static constexpr std::size_t kGrowthDenominator = 2;

  explicit MemoryManager(std::size_t initialChunkSize = kDefaultInitialChunkSize)
      : nextChunkSize_(initialChunkSize == 0 ? 1 : initialChunkSize) {}

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  /// Hand out a node: from the free list if one is available (its previous
  /// contents are stale — the caller reinitializes every field), otherwise
  /// bump-allocated from the current chunk.
  [[nodiscard]] NodeT* get() {
    if (freeList_ != nullptr) {
      NodeT* node = freeList_;
      freeList_ = node->next;
      node->next = nullptr;
      --freeCount_;
      return node;
    }
    if (chunkUsed_ == chunkCapacity_) {
      grow();
    }
    ++bumpAllocated_;
    return &chunks_.back()[chunkUsed_++];
  }

  /// Return a node to the free list.  The node must have come from get() and
  /// must no longer be referenced anywhere.
  void free(NodeT* node) {
    assert(node != nullptr);
    node->next = freeList_;
    freeList_ = node;
    ++freeCount_;
  }

  /// Nodes currently handed out (allocated and not freed).
  [[nodiscard]] std::size_t inUse() const { return bumpAllocated_ - freeCount_; }
  /// Nodes waiting on the free list.
  [[nodiscard]] std::size_t available() const { return freeCount_; }
  /// Nodes ever bump-allocated from chunks (freed or not).
  [[nodiscard]] std::size_t allocatedTotal() const { return bumpAllocated_; }
  /// Number of chunks backing the arena.
  [[nodiscard]] std::size_t chunkCount() const { return chunks_.size(); }
  /// Total arena capacity in bytes (all chunks, used or not) — the memory
  /// footprint gauge of the timeline sampler.
  [[nodiscard]] std::size_t arenaBytes() const { return capacityTotal_ * sizeof(NodeT); }

private:
  void grow() {
    chunks_.push_back(std::make_unique<NodeT[]>(nextChunkSize_));
    chunkCapacity_ = nextChunkSize_;
    capacityTotal_ += nextChunkSize_;
    chunkUsed_ = 0;
    nextChunkSize_ = nextChunkSize_ * kGrowthNumerator / kGrowthDenominator;
  }

  std::vector<std::unique_ptr<NodeT[]>> chunks_;
  std::size_t chunkUsed_ = 0;     ///< bump index into the current chunk
  std::size_t chunkCapacity_ = 0; ///< size of the current chunk
  std::size_t capacityTotal_ = 0; ///< summed size of all chunks
  std::size_t nextChunkSize_;
  NodeT* freeList_ = nullptr;
  std::size_t freeCount_ = 0;
  std::size_t bumpAllocated_ = 0;
};

} // namespace qadd::dd
