// Node health states and latency-based gray-failure detection.
//
// Crash detection (kSuspected, kDead) is heartbeat-based and lives in
// net::NetHealth, which also runs without the net model (a perfect wire).
// The SlowHealthMonitor below is the other detector: it watches
// completion latency and flags nodes that answer heartbeats but limp.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/node.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace wsched::fault {

/// kDegraded is the gray-failure state: the node answers heartbeats (so
/// the heartbeat detector never produces it) but completes requests
/// anomalously slowly. Only the latency watchdog below enters it.
enum class NodeHealth : std::uint8_t {
  kHealthy,
  kDegraded,
  kSuspected,
  kDead,
};

const char* to_string(NodeHealth health);

/// Latency-based gray-failure detection. Off by default; the disabled
/// config constructs nothing and perturbs nothing.
struct SlowHealthConfig {
  bool enabled = false;
  /// EWMA weight of each completion's stretch sample. Deliberately small:
  /// per-request stretch is noisy (one queued burst inflates every sample
  /// behind it), and a heavy weight makes healthy nodes flap kDegraded.
  double alpha = 0.05;
  /// A node enters kDegraded when its stretch EWMA exceeds
  /// `degrade_ratio` times the median EWMA across primed alive nodes...
  double degrade_ratio = 3.5;
  /// ...and recovers once it drops back below `recover_ratio` times the
  /// median (recover < degrade gives hysteresis).
  double recover_ratio = 1.75;
  /// Completions a node must report before its EWMA is trusted.
  int min_samples = 20;
  /// RSRC slowness penalty: a kDegraded candidate's cost is scaled by
  /// (1 + penalty), composing multiplicatively with the staleness scale.
  double penalty = 1.0;
  /// Exclude kDegraded nodes from dispatch outright instead of (only)
  /// penalizing them — the circuit-breaker-style hard form.
  bool exclude = false;
  /// Watchdog period; 0 rides the cluster's load sampling period.
  double check_period_s = 0.0;
};

/// Per-node completion-latency EWMA watchdog. Each completion feeds a
/// stretch sample (sojourn / service demand — the paper's own normalized
/// latency); a periodic check compares every primed node against the
/// median of its alive peers and flags relative outliers kDegraded. A
/// relative threshold is what makes this *gray-failure* detection: under
/// uniform overload all nodes slow down together and nobody is flagged,
/// but a limping node stands out at any load level. Deterministic — no
/// RNG, and the period rides the existing sampling cadence.
class SlowHealthMonitor {
 public:
  using TransitionFn =
      std::function<void(int node, NodeHealth from, NodeHealth to)>;

  SlowHealthMonitor(int nodes, const SlowHealthConfig& config);

  /// Feeds one completion: `sojourn` is time-on-cluster, `demand` the
  /// request's service demand (both in Time ticks).
  void on_completion(int node, Time sojourn, Time demand);

  /// A node that crashed or powered down loses its history (its EWMA
  /// describes a machine that no longer exists) and its degraded flag.
  void on_node_down(int node);

  /// Runs one watchdog round over the given liveness view.
  void check_now(const std::vector<sim::Node*>& nodes);

  NodeHealth health(int node) const {
    return state_[static_cast<std::size_t>(node)];
  }
  const std::vector<NodeHealth>& all() const { return state_; }
  /// Per-node RSRC cost multipliers: 1.0 healthy, 1 + penalty degraded.
  const std::vector<double>& scale() const { return scale_; }
  double ewma(int node) const {
    return ewma_[static_cast<std::size_t>(node)].value();
  }
  std::uint64_t degrade_transitions() const { return degraded_; }
  std::uint64_t recover_transitions() const { return recovered_; }
  int degraded_count() const { return degraded_count_; }

  void set_on_transition(TransitionFn fn) { on_transition_ = std::move(fn); }

 private:
  void transition(int node, NodeHealth to);

  SlowHealthConfig config_;
  std::vector<Ewma> ewma_;
  std::vector<int> samples_;
  std::vector<NodeHealth> state_;
  std::vector<double> scale_;
  std::vector<double> scratch_;
  int degraded_count_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t recovered_ = 0;
  TransitionFn on_transition_;
};

}  // namespace wsched::fault
