// Discrete-event simulation engine.
//
// A single-threaded event loop over an indexed event calendar. Ties in
// time break by insertion order (a global sequence number), which makes
// runs fully deterministic. Cancellation is lazy: components that may
// need to invalidate an event capture an epoch counter and no-op when it
// is stale (see sim::Node).
//
// Internals (DESIGN.md section 14): events are 40-byte tagged PODs in a
// power-of-two bucket ring (the calendar), with a bitmap index over the
// buckets for next-nonempty scans and a binary heap holding the overflow
// beyond the calendar window. The common event kinds — CPU/disk slice
// ends, node priority ticks, and raw function-pointer trampolines — are
// dispatched through a switch with no allocation or type erasure; only
// genuinely-capturing std::function closures pay for a slab slot. The
// (time, sequence) total order of the historical binary-heap engine is
// preserved exactly: every artifact is byte-identical across the two
// implementations.
//
// Runaway guard: a scheduling bug (an event chain that reschedules itself
// without making progress) used to spin run() forever. set_guard() arms an
// event-count and/or wall-clock budget; exceeding either throws
// EngineGuardError carrying the simulated time, the processed/pending
// counts and — when a diagnostics source is attached (the tracer's
// recent-event digest) — what the simulation was last doing. The armed
// guard costs one predictable compare per event: checks fire only when
// `processed_` crosses the precomputed `guard_check_at_` threshold (the
// max-events limit, or the next 8192-event wall-clock sampling boundary).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/slot_pool.hpp"
#include "util/time.hpp"

namespace wsched::sim {

class Node;

/// Thrown when an armed engine guard trips. The message carries the
/// diagnostic; the fields allow programmatic inspection.
class EngineGuardError : public std::runtime_error {
 public:
  EngineGuardError(const std::string& message, Time now,
                   std::uint64_t processed, std::size_t pending)
      : std::runtime_error(message),
        now(now),
        processed(processed),
        pending(pending) {}

  Time now;
  std::uint64_t processed;
  std::size_t pending;
};

class Engine {
 public:
  using Action = std::function<void()>;

  Engine();

  Time now() const { return now_; }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t pending() const { return size_; }
  /// Event slots the calendar holds allocated (bucket ring and overflow
  /// heap), pending or not. Drained buckets keep at most
  /// kBucketKeepEvents slots each, so this follows the pending count.
  std::size_t reserved_events() const;

  static constexpr std::size_t kCalendarBuckets = 2048;
  /// Slots a drained bucket may keep; a larger burst's storage is freed.
  static constexpr std::size_t kBucketKeepEvents = 64;

  /// Schedules `fn` at absolute time t (>= now; earlier times are clamped
  /// to now so floating-point-derived durations can't move time backwards).
  void schedule_at(Time t, Action fn);
  void schedule_after(Time dt, Action fn) {
    schedule_at(now_ + dt, std::move(fn));
  }

  /// Zero-allocation scheduling for self-rescheduling callbacks: `fn(ctx)`
  /// runs at time t. The caller guarantees `ctx` outlives the event (the
  /// usual shape: `ctx` is a component owned by the simulation, or a stack
  /// frame that outlives engine.run()).
  void schedule_call(Time t, void (*fn)(void*), void* ctx);
  void schedule_call_after(Time dt, void (*fn)(void*), void* ctx) {
    schedule_call(now_ + dt, fn, ctx);
  }

  // Typed node events (the simulation's three hottest kinds); dispatched
  // straight into the Node's private handlers, no closure involved.
  void schedule_cpu_slice_end(Time t, Node* node, std::uint64_t token);
  void schedule_disk_slice_end(Time t, Node* node, std::uint64_t token);
  void schedule_node_tick(Time t, Node* node);

  /// Runs until the queue drains or stop() is called.
  void run();

  /// Runs while events exist with time <= horizon; leaves later events
  /// queued and advances now() to min(horizon, last event time).
  void run_until(Time horizon);

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Arms the runaway guard: abort (EngineGuardError) once more than
  /// `max_events` events have been processed, or after `wall_budget_s`
  /// real seconds inside run()/run_until(). Zero disables either limit
  /// (both zero disarms the guard entirely — the default).
  void set_guard(std::uint64_t max_events, double wall_budget_s = 0.0);

  /// Attaches a context source whose string is appended to the guard's
  /// abort message (e.g. the tracer's recent-event categories). Only ever
  /// invoked while building that message, never on the event path.
  void set_guard_diagnostics(std::function<std::string()> fn) {
    guard_diagnostics_ = std::move(fn);
  }

 private:
  enum class EventKind : std::uint8_t {
    kClosure = 0,     ///< pooled std::function<void()>
    kCall,            ///< raw fn(ctx) trampoline
    kCpuSliceEnd,     ///< Node::on_cpu_slice_end(token)
    kDiskSliceEnd,    ///< Node::on_disk_slice_end(token)
    kNodeTick,        ///< Node::on_tick()
  };

  /// One calendar entry: 40 trivially-copyable bytes. `seq` is the global
  /// insertion counter that breaks time ties, exactly as the historical
  /// binary-heap engine did.
  struct Event {
    Time t;
    std::uint64_t seq;
    union {
      struct {
        void (*fn)(void*);
        void* ctx;
      } call;
      struct {
        Node* node;
        std::uint64_t token;
      } node;
      struct {
        Action* fn;
      } closure;
    } u;
    EventKind kind;
  };
  static_assert(sizeof(Event) == 40, "calendar entries stay 40 bytes");

  static constexpr int kBucketBits = 11;
  static constexpr std::uint64_t kBuckets = 1ull << kBucketBits;
  static_assert(kBuckets == kCalendarBuckets);
  static constexpr std::uint64_t kBucketMask = kBuckets - 1;
  static constexpr int kDefaultShift = 19;  ///< 2^19 ns ≈ 0.52 ms buckets

  std::uint64_t bucket_of(Time t) const {
    return static_cast<std::uint64_t>(t) >> shift_;
  }

  void insert(Event e);
  /// Ensures the cursor rests on a sorted bucket with an unconsumed event
  /// (or flags a direct overflow pop); returns false when the calendar and
  /// overflow heap are both empty.
  bool prepare_next();
  Event take_next();
  std::uint64_t next_nonempty_after(std::uint64_t b) const;
  void drain_overflow_into_window();
  void dispatch(const Event& e);

  void rearm_guard_check();
  void guard_tick();
  [[noreturn]] void guard_abort(const char* which);

  // Calendar state. Buckets hold unsorted events until the cursor reaches
  // them; the cursor's bucket is sorted in place and consumed through
  // `run_pos_`. All overflow-heap events lie strictly beyond the window,
  // so every calendar event precedes every overflow event in (t, seq).
  std::vector<std::vector<Event>> buckets_;
  std::uint64_t bitmap_[kBuckets / 64] = {};
  int shift_ = kDefaultShift;
  std::uint64_t cur_bucket_ = 0;   ///< cursor (absolute bucket index)
  bool cur_sorted_ = false;        ///< cursor bucket sorted & draining
  bool next_from_overflow_ = false;  ///< next pop comes from the heap top
  std::size_t run_pos_ = 0;        ///< next unconsumed event in the cursor bucket
  std::vector<Event> overflow_;    ///< min-heap on (t, seq), beyond-window
  std::size_t size_ = 0;           ///< total pending events
  std::size_t ring_count_ = 0;     ///< pending events in the ring alone

  // Closure slab: pooled storage for type-erased actions, so steady-state
  // closures allocate nothing beyond what their own captures need.
  SlotPool<Action> slab_;

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;

  // Guard state: `guard_check_at_` is the only per-event cost (one
  // compare); UINT64_MAX means disarmed.
  std::uint64_t guard_check_at_ = UINT64_MAX;
  std::uint64_t guard_max_events_ = 0;
  double guard_wall_budget_s_ = 0.0;
  std::int64_t guard_wall_deadline_ns_ = 0;  ///< steady_clock epoch ns; 0 unset
  std::function<std::string()> guard_diagnostics_;
};

}  // namespace wsched::sim
