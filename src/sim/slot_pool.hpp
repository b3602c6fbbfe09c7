// Free-listed object pool with stable addresses.
//
// Per-request objects — event contexts (a deferred dispatch step, an RPC
// message, a load report, a deadline or hedge timer), engine closures,
// node processes — live from one event to a later one and are referenced
// by pointer meanwhile. SlotPool hands them out from a std::deque, whose
// elements never move, and recycles released slots through a free list,
// so once the pool is warm an object costs no allocation. A released slot
// keeps its last value; acquire() returns it as is and the caller
// overwrites what it uses.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

namespace wsched::sim {

template <typename T>
class SlotPool {
 public:
  T* acquire() {
    if (free_.empty()) return &slots_.emplace_back();
    T* slot = free_.back();
    free_.pop_back();
    return slot;
  }
  void release(T* slot) { free_.push_back(slot); }

  /// Slots handed out and not yet released.
  std::size_t in_use() const { return slots_.size() - free_.size(); }
  /// Slots ever created: the pool's high-water mark.
  std::size_t capacity() const { return slots_.size(); }

 private:
  std::deque<T> slots_;
  std::vector<T*> free_;
};

}  // namespace wsched::sim
