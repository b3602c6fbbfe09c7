// Event tracing for simulation runs.
//
// A TraceSink receives spans (CPU/disk slices), instants (arrivals,
// dispatch decisions, faults) and counter samples (theta'_2, queue
// depths), each tagged with a category, a pid (one per simulated node,
// plus a cluster-level pseudo-pid) and a tid (one lane per subsystem
// within a node). The concrete ChromeTraceSink buffers events and writes
// Chrome trace_event JSON ({"traceEvents": [...]}), loadable in Perfetto
// or chrome://tracing.
//
// Overhead contract: instrumentation sites hold a TraceSink pointer that
// is null when tracing is off, so a disabled run pays exactly one
// predictable branch per site — no allocation, no formatting, no RNG use —
// and produces bit-identical results to a build without the hooks.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace wsched::obs {

/// Event categories; also the Chrome "cat" field.
enum class Category : std::uint8_t {
  kRequest,      ///< request lifecycle (arrival .. completion)
  kDispatch,     ///< routing decisions at the front end
  kCpu,          ///< CPU scheduling (slices, preemptions, forks)
  kDisk,         ///< disk scheduling (round-robin slices)
  kMemory,       ///< paging / allocation events
  kFault,        ///< crashes, recoveries, degradations, health transitions
  kReservation,  ///< theta'_2 / a_hat / r_hat updates
  kProbe,        ///< periodic time-series samples
  kLog,          ///< structured diagnostics routed into the trace
  kNet,          ///< interconnect: drops, partitions, RPC retries, reports
  kCtrl,         ///< control plane: retunes, scale-ups/downs, retargets
};

inline constexpr std::size_t kCategoryCount = 11;

const char* to_string(Category category);

/// Subsystem lanes within one pid (the Chrome tid).
enum Lane : int {
  kLaneRequest = 0,
  kLaneCpu = 1,
  kLaneDisk = 2,
  kLaneFault = 3,
  kLaneDispatch = 4,
  kLaneControl = 5,   ///< reservation / probe / log events
  kLaneOverload = 6,  ///< shedding / abandonment / breaker / degraded mode
  kLaneNet = 7,       ///< message drops, partitions, RPC retries, step-downs
  kLaneCtrl = 8,      ///< control plane: retune / power / retarget events
};

/// One "key=value" argument attached to an event. Numeric when `text`
/// is empty; the value renders with the canonical artifact formatting.
struct TraceArg {
  const char* key;
  double num = 0.0;
  std::string text;

  TraceArg(const char* k, double v) : key(k), num(v) {}
  TraceArg(const char* k, int v) : key(k), num(v) {}
  TraceArg(const char* k, std::int64_t v)
      : key(k), num(static_cast<double>(v)) {}
  TraceArg(const char* k, std::uint64_t v)
      : key(k), num(static_cast<double>(v)) {}
  TraceArg(const char* k, std::string v)
      : key(k), text(std::move(v)) {}
  TraceArg(const char* k, const char* v) : key(k), text(v) {}
};

using TraceArgs = std::vector<TraceArg>;

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Complete span ("X"): [start, start + dur) on (pid, tid).
  virtual void span(Category category, const char* name, int pid, int tid,
                    Time start, Time dur, TraceArgs args = {}) = 0;

  /// Instant event ("i") at time t.
  virtual void instant(Category category, const char* name, int pid, int tid,
                       Time t, TraceArgs args = {}) = 0;

  /// Counter sample ("C"): one named value tracked over time per pid.
  virtual void counter(Category category, const char* name, int pid, Time t,
                       double value) = 0;

  /// Async span begin/end ("b"/"e") correlated by id — used for request
  /// lifecycles, which overlap freely on one node.
  virtual void async_begin(Category category, const char* name, int pid,
                           std::uint64_t id, Time t, TraceArgs args = {}) = 0;
  virtual void async_end(Category category, const char* name, int pid,
                         std::uint64_t id, Time t, TraceArgs args = {}) = 0;

  /// Flow event ("s" start / "t" step / "f" finish) correlated by id:
  /// draws the arrow that follows one request across the front-end,
  /// network and node lanes in the trace viewer. Default is a no-op so
  /// sinks that predate flows stay valid.
  virtual void flow(Category category, char phase, const char* name, int pid,
                    int tid, Time t, std::uint64_t id) {
    (void)category; (void)phase; (void)name;
    (void)pid; (void)tid; (void)t; (void)id;
  }

  /// Names a pid / (pid, tid) in the trace viewer.
  virtual void name_process(int pid, const std::string& name) = 0;
  virtual void name_thread(int pid, int tid, const std::string& name) = 0;

  /// Human-readable digest of recent activity (per-category event counts
  /// plus the most recent event names) — consumed by the engine's runaway
  /// guard to say what the simulation was doing when it tripped.
  virtual std::string recent_summary() const = 0;
};

/// Buffers events in memory and serializes Chrome trace_event JSON.
class ChromeTraceSink final : public TraceSink {
 public:
  ChromeTraceSink() = default;

  void span(Category category, const char* name, int pid, int tid,
            Time start, Time dur, TraceArgs args = {}) override;
  void instant(Category category, const char* name, int pid, int tid, Time t,
               TraceArgs args = {}) override;
  void counter(Category category, const char* name, int pid, Time t,
               double value) override;
  void async_begin(Category category, const char* name, int pid,
                   std::uint64_t id, Time t, TraceArgs args = {}) override;
  void async_end(Category category, const char* name, int pid,
                 std::uint64_t id, Time t, TraceArgs args = {}) override;
  void flow(Category category, char phase, const char* name, int pid,
            int tid, Time t, std::uint64_t id) override;
  void name_process(int pid, const std::string& name) override;
  void name_thread(int pid, int tid, const std::string& name) override;
  std::string recent_summary() const override;

  std::size_t event_count() const { return events_.size(); }
  std::uint64_t category_count(Category category) const {
    return per_category_[static_cast<std::size_t>(category)];
  }

  /// Serializes the buffered trace as {"traceEvents": [...]}.
  void write(std::ostream& out) const;
  std::string str() const;
  /// Convenience: writes to `path`, throwing std::runtime_error on failure.
  void write_file(const std::string& path) const;

 private:
  // Flat append-buffer storage: one POD record per event, its arguments
  // packed into a shared pool and all dynamic characters (string-valued
  // args, metadata names) into one byte buffer. Buffering a trace costs
  // amortized-zero allocations per event instead of retaining a vector
  // (and possibly strings) for each; serialization walks the pools
  // sequentially through the harness formatter.
  struct Event {
    Category category;
    char phase;  ///< 'X', 'i', 'C', 'b', 'e', 'M', 's', 't', 'f'
    const char* name = nullptr;  ///< static literal at every call site
    int pid = 0;
    int tid = 0;
    Time ts = 0;
    Time dur = 0;
    std::uint64_t id = 0;
    std::uint32_t arg_begin = 0;
    std::uint32_t arg_count = 0;
  };
  struct Arg {
    const char* key = nullptr;
    double num = 0.0;
    std::uint32_t text_off = 0;  ///< into chars_; text_len == 0 → numeric
    std::uint32_t text_len = 0;
  };

  Event& push(Category category, char phase, const char* name, int pid,
              int tid, Time ts, const TraceArgs& args);
  std::uint32_t intern(const char* data, std::size_t len);

  std::vector<Event> events_;
  std::vector<Arg> args_;
  std::string chars_;
  std::uint64_t per_category_[kCategoryCount] = {};
  // Ring of the most recent event names for recent_summary().
  static constexpr std::size_t kRecent = 8;
  const char* recent_names_[kRecent] = {};
  std::size_t recent_next_ = 0;
};

}  // namespace wsched::obs
