#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <sstream>
#include <utility>

#include "sim/node.hpp"

namespace wsched::sim {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

namespace {
// (t, seq) min-heap order for the overflow heap.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};
constexpr Later kLater{};
}  // namespace

Engine::Engine() : buckets_(kBuckets) {}

void Engine::schedule_at(Time t, Action fn) {
  if (t < now_) t = now_;
  Action* slot = slab_.acquire();
  *slot = std::move(fn);
  Event e;
  e.t = t;
  e.seq = seq_++;
  e.kind = EventKind::kClosure;
  e.u.closure.fn = slot;
  insert(e);
}

void Engine::schedule_call(Time t, void (*fn)(void*), void* ctx) {
  if (t < now_) t = now_;
  Event e;
  e.t = t;
  e.seq = seq_++;
  e.kind = EventKind::kCall;
  e.u.call.fn = fn;
  e.u.call.ctx = ctx;
  insert(e);
}

void Engine::schedule_cpu_slice_end(Time t, Node* node, std::uint64_t token) {
  if (t < now_) t = now_;
  Event e;
  e.t = t;
  e.seq = seq_++;
  e.kind = EventKind::kCpuSliceEnd;
  e.u.node.node = node;
  e.u.node.token = token;
  insert(e);
}

void Engine::schedule_disk_slice_end(Time t, Node* node,
                                     std::uint64_t token) {
  if (t < now_) t = now_;
  Event e;
  e.t = t;
  e.seq = seq_++;
  e.kind = EventKind::kDiskSliceEnd;
  e.u.node.node = node;
  e.u.node.token = token;
  insert(e);
}

void Engine::schedule_node_tick(Time t, Node* node) {
  if (t < now_) t = now_;
  Event e;
  e.t = t;
  e.seq = seq_++;
  e.kind = EventKind::kNodeTick;
  e.u.node.node = node;
  e.u.node.token = 0;
  insert(e);
}

void Engine::insert(Event e) {
  ++size_;
  const std::uint64_t b = bucket_of(e.t);
  if (b >= bucket_of(now_) + kBuckets) {
    // Beyond the calendar window: park in the overflow heap. Every ring
    // event's bucket lies in [bucket_of(now_), bucket_of(now_) + kBuckets),
    // so overflow events sort strictly after all ring events.
    overflow_.push_back(e);
    std::push_heap(overflow_.begin(), overflow_.end(), kLater);
    return;
  }
  if (ring_count_ == 0 && !cur_sorted_) {
    // Ring fully drained: every bucket vector is empty (consumed leftovers
    // only live in the cursor bucket while cur_sorted_ holds), so the
    // cursor can jump anywhere. It must: run_until() may have parked now_
    // arbitrarily far ahead of the last drained bucket, and if the lag
    // exceeds one window, next_nonempty_after()'s absolute-index
    // arithmetic (cur_bucket_ + 1 + delta) would resolve this event's slot
    // to the wrong window — a bucket index off by a multiple of kBuckets —
    // breaking the `b == cur_bucket_` sorted-insert check and with it the
    // (t, seq) dispatch order. Pin the cursor to the event's own bucket.
    cur_bucket_ = b;
    run_pos_ = 0;
  } else if (b < cur_bucket_) {
    // Only reachable when run_until() parked the cursor on a future bucket
    // and the caller then scheduled something earlier (still >= now_).
    // Rewind: the parked bucket keeps its bitmap bit and is re-sorted when
    // the cursor returns. Nothing has been consumed from it (pops pin the
    // cursor to bucket_of(now_)).
    assert(run_pos_ == 0 || !cur_sorted_);
    cur_bucket_ = b;
    cur_sorted_ = false;
    run_pos_ = 0;
  }
  ++ring_count_;
  auto& vec = buckets_[b & kBucketMask];
  if (b == cur_bucket_ && cur_sorted_) {
    // The cursor is draining this bucket. The new event carries the
    // largest sequence number in existence, so among equal times it sorts
    // last: upper_bound on time alone lands on its exact (t, seq) slot.
    const auto it =
        std::upper_bound(vec.begin() + static_cast<std::ptrdiff_t>(run_pos_),
                         vec.end(), e.t,
                         [](Time t, const Event& x) { return t < x.t; });
    vec.insert(it, e);
  } else {
    vec.push_back(e);
  }
  bitmap_[(b & kBucketMask) >> 6] |= 1ull << (b & 63);
}

void Engine::drain_overflow_into_window() {
  const std::uint64_t limit = bucket_of(now_) + kBuckets;
  while (!overflow_.empty() && bucket_of(overflow_.front().t) < limit) {
    std::pop_heap(overflow_.begin(), overflow_.end(), kLater);
    const Event e = overflow_.back();
    overflow_.pop_back();
    const std::uint64_t b = bucket_of(e.t);
    buckets_[b & kBucketMask].push_back(e);
    bitmap_[(b & kBucketMask) >> 6] |= 1ull << (b & 63);
    ++ring_count_;
  }
}

std::uint64_t Engine::next_nonempty_after(std::uint64_t b) const {
  // Scanning ring slots in ring order starting just past `b` visits
  // absolute buckets b+1 .. b+kBuckets-1 in increasing order, because all
  // live buckets fit inside one window.
  const std::uint64_t start = (b + 1) & kBucketMask;
  constexpr std::uint64_t kWords = kBuckets / 64;
  std::uint64_t word_i = start >> 6;
  std::uint64_t word = bitmap_[word_i] & (~0ull << (start & 63));
  for (std::uint64_t i = 0; i <= kWords; ++i) {
    if (word != 0) {
      const std::uint64_t slot =
          (word_i << 6) + static_cast<std::uint64_t>(std::countr_zero(word));
      const std::uint64_t delta = (slot - start) & kBucketMask;
      return b + 1 + delta;
    }
    word_i = (word_i + 1) & (kWords - 1);
    word = bitmap_[word_i];
  }
  assert(false && "ring_count_ > 0 but no bucket bit set");
  return b;
}

bool Engine::prepare_next() {
  next_from_overflow_ = false;
  for (;;) {
    auto& vec = buckets_[cur_bucket_ & kBucketMask];
    if (cur_sorted_) {
      if (run_pos_ < vec.size()) return true;
      // Exhausted: release the bucket and move on. A burst's storage goes
      // back to the heap, so the ring holds what is pending rather than
      // every bucket's high-water mark; small buckets keep theirs.
      if (vec.capacity() > kBucketKeepEvents)
        std::vector<Event>().swap(vec);
      else
        vec.clear();
      bitmap_[(cur_bucket_ & kBucketMask) >> 6] &=
          ~(1ull << (cur_bucket_ & 63));
      cur_sorted_ = false;
      run_pos_ = 0;
    } else if (!vec.empty()) {
      std::sort(vec.begin(), vec.end(), [](const Event& a, const Event& b) {
        if (a.t != b.t) return a.t < b.t;
        return a.seq < b.seq;
      });
      cur_sorted_ = true;
      run_pos_ = 0;
      return true;
    }
    if (size_ == 0) return false;
    drain_overflow_into_window();
    if (!vec.empty()) continue;  // overflow drained into the cursor bucket
    if (ring_count_ > 0) {
      cur_bucket_ = next_nonempty_after(cur_bucket_);
      continue;
    }
    // Ring empty, overflow holding only beyond-window events: serve the
    // heap top directly (rare — far-future faults, end-of-run stragglers).
    next_from_overflow_ = true;
    return true;
  }
}

Engine::Event Engine::take_next() {
  --size_;
  if (next_from_overflow_) {
    std::pop_heap(overflow_.begin(), overflow_.end(), kLater);
    const Event e = overflow_.back();
    overflow_.pop_back();
    // Re-anchor the cursor at the event's bucket; the following
    // prepare_next() drains any now-in-window overflow around it.
    cur_bucket_ = bucket_of(e.t);
    cur_sorted_ = false;
    run_pos_ = 0;
    return e;
  }
  --ring_count_;
  return buckets_[cur_bucket_ & kBucketMask][run_pos_++];
}

std::size_t Engine::reserved_events() const {
  std::size_t total = overflow_.capacity();
  for (const std::vector<Event>& vec : buckets_) total += vec.capacity();
  return total;
}

void Engine::dispatch(const Event& e) {
  switch (e.kind) {
    case EventKind::kCall:
      e.u.call.fn(e.u.call.ctx);
      break;
    case EventKind::kCpuSliceEnd:
      e.u.node.node->on_cpu_slice_end(e.u.node.token);
      break;
    case EventKind::kDiskSliceEnd:
      e.u.node.node->on_disk_slice_end(e.u.node.token);
      break;
    case EventKind::kNodeTick:
      e.u.node.node->on_tick();
      break;
    case EventKind::kClosure: {
      Action* slot = e.u.closure.fn;
      Action fn = std::move(*slot);
      slab_.release(slot);  // slot reusable while fn runs
      fn();
      break;
    }
  }
}

void Engine::set_guard(std::uint64_t max_events, double wall_budget_s) {
  guard_max_events_ = max_events;
  guard_wall_budget_s_ = wall_budget_s;
  guard_wall_deadline_ns_ = 0;  // re-anchored on the next processed event
  rearm_guard_check();
}

void Engine::rearm_guard_check() {
  std::uint64_t next = UINT64_MAX;
  if (guard_max_events_ > 0) next = guard_max_events_;
  if (guard_wall_budget_s_ > 0.0) {
    if (guard_wall_deadline_ns_ == 0) {
      next = std::min(next, processed_ + 1);  // anchor the deadline ASAP
    } else {
      // The clock read is amortized: once every 8192 events keeps the
      // guard out of the per-event cost while bounding overshoot.
      next = std::min(next, (processed_ & ~std::uint64_t{0x1FFF}) + 0x2000);
    }
  }
  guard_check_at_ = next;
}

void Engine::guard_abort(const char* which) {
  std::ostringstream message;
  message << "engine guard tripped (" << which << "): t="
          << to_seconds(now_) << "s processed=" << processed_
          << " pending=" << size_;
  if (guard_max_events_ > 0)
    message << " max_events=" << guard_max_events_;
  if (guard_wall_budget_s_ > 0.0)
    message << " wall_budget=" << guard_wall_budget_s_ << "s";
  if (guard_diagnostics_) {
    const std::string context = guard_diagnostics_();
    if (!context.empty()) message << "; " << context;
  }
  throw EngineGuardError(message.str(), now_, processed_, size_);
}

void Engine::guard_tick() {
  if (guard_max_events_ > 0 && processed_ >= guard_max_events_)
    guard_abort("max events");
  if (guard_wall_budget_s_ > 0.0) {
    if (guard_wall_deadline_ns_ == 0) {
      guard_wall_deadline_ns_ =
          steady_now_ns() +
          static_cast<std::int64_t>(guard_wall_budget_s_ * 1e9);
    } else if ((processed_ & 0x1FFF) == 0 &&
               steady_now_ns() > guard_wall_deadline_ns_) {
      guard_abort("wall clock");
    }
  }
  rearm_guard_check();
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && prepare_next()) {
    const Event e = take_next();
    now_ = e.t;
    ++processed_;
    if (processed_ >= guard_check_at_) guard_tick();
    dispatch(e);
  }
}

void Engine::run_until(Time horizon) {
  stopped_ = false;
  while (!stopped_) {
    if (!prepare_next()) break;
    const Time next_t = next_from_overflow_
                            ? overflow_.front().t
                            : buckets_[cur_bucket_ & kBucketMask][run_pos_].t;
    if (next_t > horizon) break;
    const Event e = take_next();
    now_ = e.t;
    ++processed_;
    if (processed_ >= guard_check_at_) guard_tick();
    dispatch(e);
  }
  if (now_ < horizon && !stopped_) now_ = horizon;
}

}  // namespace wsched::sim
