// Named monotonic counters for one run.
//
// A CounterRegistry maps dotted names ("subsystem.outcome") to totals, so
// exports group naturally. ClusterSim fills it once, after the run, from
// the metric table (core/metric_table.hpp); nothing reads it mid-run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace wsched::obs {

class CounterRegistry {
 public:
  /// Stable handle for `name` (created at zero on first use). The pointer
  /// remains valid for the registry's lifetime — std::map nodes never move.
  std::uint64_t* handle(const std::string& name) {
    return &counters_[name];
  }

  /// Current value; 0 for names never touched.
  std::uint64_t value(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  bool empty() const { return counters_.empty(); }

  /// Snapshot in name order (deterministic export order).
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const {
    return {counters_.begin(), counters_.end()};
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
};

/// Null-safe increment used at instrumentation sites.
inline void bump(std::uint64_t* counter, std::uint64_t by = 1) {
  if (counter != nullptr) *counter += by;
}

}  // namespace wsched::obs
