// Message-level interconnect model.
//
// The paper charges a constant 1 ms remote-CGI dispatch latency and treats
// every control signal (load samples, heartbeats) as free and instantly
// delivered. Network replaces both with an explicit message layer: each
// send samples a per-link latency (base + exponential jitter, spread by a
// deterministic per-link factor), may be lost with probability `loss`, may
// be delayed extra to model reordering, and is dropped outright while a
// partition separates source and destination. Scripted partition windows
// split the cluster into groups; reachability is evaluated at send time.
//
// Determinism contract: the transport owns dedicated Rng streams, so
// enabling it never perturbs the workload or dispatch draws, and a
// zero-probability knob (loss = 0, jitter = 0) draws nothing at all. The
// disabled config (`enabled = false`, what NetworkParams::ideal() returns)
// constructs nothing and leaves every run byte-identical to a build
// without the subsystem — the paper's network *is* the ideal network.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "overload/backoff.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace wsched::net {

/// One scripted partition window: during [from, until) the cluster is
/// split into the given node groups and messages between different groups
/// are dropped. Nodes listed in no group implicitly join the first group.
struct PartitionSpec {
  Time from = 0;
  Time until = 0;
  std::vector<std::vector<int>> groups;
};

/// Parses "t0:t1:G" where G is '|'-separated groups of comma-separated
/// node ids / a-b ranges, e.g. "6:10:0-5|6,7". Every field must parse
/// whole: times are finite seconds in [0, 1e9], node ids plain digits up
/// to 2^20. Throws std::invalid_argument on malformed input.
PartitionSpec parse_partition_spec(const std::string& text);

struct NetworkParams {
  /// Master switch. False constructs nothing: the constant-latency,
  /// lossless, oracle-information model of the paper stays in effect and
  /// every artifact is byte-identical to a build without src/net/.
  bool enabled = false;

  // --- data plane (remote CGI dispatch hops) ---
  /// Base one-way latency of a dispatch hop (the paper's constant 1 ms).
  double latency_base_s = 0.001;
  /// Mean of the exponential latency tail added on top of the base;
  /// 0 keeps the hop constant and draws nothing.
  double latency_jitter_s = 0.0;
  /// Per-link heterogeneity: link (i, j) scales its latency by a
  /// deterministic factor in [1 - spread, 1 + spread] hashed from (i, j),
  /// consuming no RNG draws. 0 = uniform links.
  double link_spread = 0.0;

  // --- control plane (load reports, acks) ---
  double control_latency_s = 0.0005;
  double control_jitter_s = 0.0;

  // --- impairments ---
  /// Per-message drop probability in [0, 1).
  double loss = 0.0;
  /// Probability that a message is delayed by an extra uniform
  /// [0, reorder_extra_s) — enough for a later send to overtake it.
  double reorder = 0.0;
  double reorder_extra_s = 0.005;
  /// Scripted partition windows (require the fault layer: membership and
  /// health must exist for the cluster to react).
  std::vector<PartitionSpec> partitions;

  // --- RPC (at-least-once dispatch delivery; see net/rpc.hpp) ---
  double rpc_timeout_s = 0.05;
  int rpc_max_attempts = 3;
  overload::BackoffConfig rpc_backoff{overload::BackoffKind::kExponential,
                                      10 * kMillisecond, 2.0,
                                      500 * kMillisecond, 0.1};

  // --- load reports / staleness (see net/stale_view.hpp) ---
  /// Interval between per-node load reports to the masters; 0 rides the
  /// cluster's load_sample_period.
  double load_report_interval_s = 0.0;
  /// RSRC staleness penalty: a candidate's cost is scaled by
  /// (1 + penalty * age_s) where age is the receiver's report age.
  double stale_penalty_per_s = 0.25;
  /// Power-of-two-choices fallback: when every candidate's report is
  /// older than this, the pick degrades to two uniform probes instead of
  /// trusting a fully stale min-RSRC scan. 0 disables the fallback.
  double stale_max_age_s = 0.0;

  // --- membership safety ---
  /// Gate slave->master promotion behind a majority: the serving side
  /// must hold quorum and a majority of live observers must corroborate
  /// the death; minority masters step down when their own view drops
  /// below quorum. Disabling this exhibits split-brain under partitions.
  bool quorum = true;

  /// The paper's interconnect: constant 1 ms dispatch hop, free and
  /// instant control plane, no loss, no partitions. Represented by the
  /// disabled (inert) config, so "ideal network" and "network model off"
  /// are the same run, byte for byte.
  static NetworkParams ideal() { return NetworkParams{}; }
};

enum class MsgKind : std::uint8_t {
  kData,     ///< dispatch hops (latency_base_s / latency_jitter_s)
  kControl,  ///< load reports, acks (control_latency_s / control_jitter_s)
};

/// Observability hooks (optional; a null sink costs one branch).
struct NetworkHooks {
  obs::TraceSink* trace = nullptr;
  int cluster_pid = 0;
};

class Network {
 public:
  Network(sim::Engine& engine, const NetworkParams& params, int nodes,
          std::uint64_t seed);

  void set_hooks(const NetworkHooks& hooks) { hooks_ = hooks; }
  /// Invoked after every partition open/heal (state already updated).
  void set_on_partition_change(std::function<void()> fn) {
    on_partition_change_ = std::move(fn);
  }

  /// Schedules the scripted partition windows; call once before the run.
  void start();

  /// Sends one message from `src` to `dst`: `deliver(ctx)` runs after the
  /// sampled latency, or never (loss, partition). Returns false when the
  /// message was dropped at send time; the caller still owns `ctx` then.
  bool send(int src, int dst, MsgKind kind, void (*deliver)(void*),
            void* ctx);

  /// Sampled one-way latency for one message (consumes jitter draws).
  Time sample_latency(MsgKind kind, int src, int dst);

  /// Same partition group (always true with no active partition).
  bool reachable(int a, int b) const {
    return !partition_active_ || group_[static_cast<std::size_t>(a)] ==
                                     group_[static_cast<std::size_t>(b)];
  }
  /// Whether the front end (clients, dispatch observer) reaches `node`:
  /// it rides the largest partition side (ties break to the lower group
  /// id), the side that keeps serving.
  bool front_end_reaches(int node) const {
    return !partition_active_ ||
           group_[static_cast<std::size_t>(node)] == front_group_;
  }
  bool partition_active() const { return partition_active_; }

  int nodes() const { return nodes_; }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t lost() const { return lost_; }
  std::uint64_t partition_drops() const { return partition_drops_; }
  std::uint64_t partitions_seen() const { return partitions_seen_; }

 private:
  void apply_partition(const std::vector<int>& group_of);
  void heal_partition();
  /// Deterministic per-link latency multiplier in [1 - spread, 1 + spread].
  double link_factor(int src, int dst) const;

  sim::Engine& engine_;
  NetworkParams params_;
  int nodes_;
  Rng latency_rng_;
  Rng loss_rng_;
  NetworkHooks hooks_;
  std::function<void()> on_partition_change_;
  bool partition_active_ = false;
  int front_group_ = 0;
  std::vector<int> group_;
  std::uint64_t sent_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t partition_drops_ = 0;
  std::uint64_t partitions_seen_ = 0;
};

}  // namespace wsched::net
