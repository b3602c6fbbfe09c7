// Pull streams of trace records: the replay's input interface.
//
// The paper's replay (§5.1) issues requests in arrival order, so a run
// reads every record exactly once, front to back. A RecordSource yields
// them one at a time; ClusterSim pulls one record ahead of the clock, so
// only in-flight requests — never the whole trace — are resident.
#pragma once

#include <cstddef>

#include "trace/record.hpp"

namespace wsched::trace {

class RecordSource {
 public:
  virtual ~RecordSource() = default;

  /// Writes the next record (arrivals non-decreasing) to `out`; returns
  /// false once the stream is exhausted, and on every call after that.
  virtual bool next(TraceRecord& out) = 0;

  /// Expected record count: a capacity hint for per-request tables, never
  /// a bound (a source may yield more or fewer).
  virtual std::size_t size_hint() const = 0;
};

/// A cursor over a materialized trace (which must outlive it).
class TraceCursor final : public RecordSource {
 public:
  explicit TraceCursor(const Trace& trace) : trace_(trace) {}

  bool next(TraceRecord& out) override {
    if (pos_ >= trace_.records.size()) return false;
    out = trace_.records[pos_++];
    return true;
  }
  std::size_t size_hint() const override { return trace_.records.size(); }

 private:
  const Trace& trace_;
  std::size_t pos_ = 0;
};

/// Drains `source` into a trace, reserving its size hint up front.
inline Trace materialize(RecordSource& source) {
  Trace trace;
  trace.records.reserve(source.size_hint());
  TraceRecord rec;
  while (source.next(rec)) trace.records.push_back(rec);
  return trace;
}

}  // namespace wsched::trace
