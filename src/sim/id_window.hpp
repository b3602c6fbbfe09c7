// A window of per-request entries keyed by a dense, increasing id.
//
// Per-request tables (the span ledger, the hedge state) are read and
// written by id while the request is pending, and never again once it has
// left. IdWindow holds entries for ids in [base(), end()) in a ring: new
// ids are appended at the end, and the owner pops entries off the front
// as the oldest requests retire, so the table holds the span from the
// oldest pending id to the newest one rather than one entry per request
// ever seen. An id's slot is `id mod capacity` (no two ids in the window
// share one), so a lookup is one compare and a mask. The ring grows by
// doubling and never shrinks.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsched::sim {

template <typename T>
class IdWindow {
 public:
  /// Oldest id held; every id below it has retired.
  std::uint64_t base() const { return base_; }
  /// One past the newest id held.
  std::uint64_t end() const { return base_ + size_; }
  bool empty() const { return size_ == 0; }
  /// The most entries ever held at once.
  std::size_t high_water() const { return high_water_; }

  /// The entry of `id`, or null when it has retired or was never added.
  /// (An id below the base wraps to an offset past the size.)
  T* find(std::uint64_t id) {
    return id - base_ < size_ ? &ring_[id & mask_] : nullptr;
  }
  const T* find(std::uint64_t id) const {
    return id - base_ < size_ ? &ring_[id & mask_] : nullptr;
  }

  /// The entry of `id`, appending default entries up to it first. An empty
  /// window moves its base to `id`. Null when `id` has retired.
  T* ensure(std::uint64_t id) {
    if (id < base_) return nullptr;
    if (size_ == 0) base_ = id;
    while (end() <= id) {
      if (size_ == ring_.size()) grow();
      ring_[end() & mask_] = T{};
      ++size_;
    }
    if (size_ > high_water_) high_water_ = size_;
    return &ring_[id & mask_];
  }

  /// The entry of base().
  T& front() {
    assert(size_ > 0);
    return ring_[base_ & mask_];
  }
  /// Retires base(): the base moves to the next id.
  void pop_front() {
    assert(size_ > 0);
    ++base_;
    --size_;
  }

 private:
  void grow() {
    std::vector<T> bigger(ring_.empty() ? 16 : 2 * ring_.size());
    const std::size_t mask = bigger.size() - 1;
    for (std::uint64_t id = base_; id < end(); ++id)
      bigger[id & mask] = ring_[id & mask_];
    ring_.swap(bigger);
    mask_ = mask;
  }

  std::vector<T> ring_;  ///< power-of-two size; id's slot is id & mask_
  std::size_t mask_ = 0;  ///< ring_.size() - 1
  std::uint64_t base_ = 0;
  std::size_t size_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace wsched::sim
