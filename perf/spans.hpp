// Host-time spans around the benchmark's own calls into the library.
//
// The benchmark never edits src/, so a span can only wrap a public call made
// from here. Spans stay in memory and are written once, as JSON, when the
// traced pass ends; bench.py derives per-layer self times from them. With the
// log disabled (every untraced pass) a Span does nothing.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace wsched_perf {

/// steady_clock nanoseconds.
std::int64_t now_ns();

struct SpanRecord {
  const char* name = "";  ///< string literal: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  std::int32_t parent = -1;  ///< index into the log, -1 for a root
  std::int32_t thread = 0;   ///< small per-process thread number
  std::int64_t run = -1;     ///< simulation-run index, -1 when not per run
};

class SpanLog {
 public:
  static SpanLog& instance();

  /// Call before any thread that records spans is started.
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Spans opened on a thread with no open span of its own (thread-pool
  /// workers) become children of `id`; -1 makes them roots.
  void set_adopter(std::int32_t id);

  std::int32_t open(const char* name, std::int64_t run);
  void close(std::int32_t id);

  /// Throws std::runtime_error when the file cannot be written.
  void write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::int32_t adopter_ = -1;      // guarded by mu_
  std::int32_t threads_ = 0;       // guarded by mu_
};

/// RAII span on the calling thread.
class Span {
 public:
  explicit Span(const char* name, std::int64_t run = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int32_t id() const { return id_; }

 private:
  std::int32_t id_ = -1;
};

}  // namespace wsched_perf
