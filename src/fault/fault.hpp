// Fault injection for the cluster simulation.
//
// Two sources of faults, both delivered through the shared event engine so
// runs stay deterministic in the seed:
//
//   * a deterministic script — an explicit list of (time, node, kind)
//     events, the tool for reproducible failure drills and tests;
//   * stochastic churn — per-node exponential time-to-failure / time-to-
//     repair (MTTF / MTTR), each node drawing from its own RNG stream so
//     adding a node never perturbs the others' fault times.
//
// Crash faults destroy the node's in-flight work (the dropped jobs are
// handed to the cluster for re-dispatch); degraded-mode faults (slow CPU,
// stalled disk) scale the node's effective speeds without killing it.
// The injector also keeps the ground-truth availability ledger: per-node
// downtime integrated over the run.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/health.hpp"
#include "obs/trace.hpp"
#include "overload/backoff.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace wsched::fault {

enum class FaultKind : std::uint8_t {
  kCrash,    ///< node dies; in-flight work is lost
  kRecover,  ///< node returns, cold
  kDegrade,  ///< speed factors change (1.0/1.0 restores nominal)
};

/// One scripted fault.
struct FaultEvent {
  Time at = 0;
  int node = 0;
  FaultKind kind = FaultKind::kCrash;
  /// Degrade only: effective-speed factors (0.25 = four times slower).
  double cpu_factor = 1.0;
  double disk_factor = 1.0;
};

/// Everything the fault/failover layer needs; `enabled = false` (the
/// default) keeps the entire subsystem out of the run — no health
/// monitoring, no membership tracking, bit-identical metrics to a build
/// without the subsystem.
struct FaultConfig {
  bool enabled = false;

  /// Deterministic fault script, applied in event-time order.
  std::vector<FaultEvent> script;

  /// Stochastic churn: per-node mean time to failure / to repair in
  /// seconds; mttf_s == 0 disables stochastic crashes.
  double mttf_s = 0.0;
  double mttr_s = 5.0;
  /// Which initial roles stochastic crashes may hit.
  bool fail_masters = true;
  bool fail_slaves = true;

  /// Failure detection: heartbeats ride the load sampling cadence
  /// (heartbeat_period == 0 uses the cluster's load_sample_period);
  /// a node is suspected after `suspect_misses` consecutive silent
  /// rounds and declared dead after `dead_misses`.
  Time heartbeat_period = 0;
  int suspect_misses = 1;
  int dead_misses = 2;

  /// Failover: a request stranded by a crash (in flight on the node, or
  /// landing on it before detection) is re-dispatched up to
  /// `max_redispatch` times, each hop charged the remote-CGI dispatch
  /// latency; beyond the cap it is counted as timed out, never silently
  /// lost. The re-dispatch delay follows the shared overload-layer backoff
  /// curve (default: capped exponential with jitter drawn from a dedicated
  /// deterministic stream). The pre-overload linear ramp is one preset
  /// away: `overload::BackoffConfig::linear(50 * kMillisecond)`.
  int max_redispatch = 4;
  overload::BackoffConfig redispatch_backoff;

  /// Fail-slow churn: per-node exponential time-to-degrade / time-to-heal
  /// in seconds; degrade_mttf_s == 0 disables it. While an episode is
  /// open the node limps at the factors below (gray failure: it still
  /// answers heartbeats). Each node draws from its own dedicated degrade
  /// stream — independent of its crash stream — so enabling fail-slow
  /// never perturbs crash times and vice versa.
  double degrade_mttf_s = 0.0;
  double degrade_mttr_s = 2.0;
  double degrade_cpu_factor = 0.25;
  double degrade_disk_factor = 0.5;

  /// Intermittent stall bursts *within* an open degrade episode: every
  /// `stall_period_s` (exponential) the limping node freezes almost
  /// completely (speed x stall_factor) for `stall_len_s` seconds, then
  /// returns to the limping factors. 0 disables stalls.
  double stall_period_s = 0.0;
  double stall_len_s = 0.02;
  double stall_factor = 0.02;
};

class FaultInjector {
 public:
  /// Fires after the node is crashed; `dropped` is its lost in-flight work.
  using CrashFn = std::function<void(int node, std::vector<sim::Job> dropped)>;
  using RecoverFn = std::function<void(int node)>;

  /// `initial_masters` = m under the static role convention (used only to
  /// aim stochastic faults when fail_masters/fail_slaves differ).
  FaultInjector(sim::Engine& engine, std::vector<sim::Node*> nodes,
                const FaultConfig& config, int initial_masters,
                std::uint64_t seed);

  void set_on_crash(CrashFn fn) { on_crash_ = std::move(fn); }
  void set_on_recover(RecoverFn fn) { on_recover_ = std::move(fn); }

  /// Attaches an event tracer (null = off); fault instants land on the
  /// affected node's fault lane.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  /// Schedules every scripted event plus the first stochastic failure per
  /// eligible node; call once before the run.
  void start();

  std::uint64_t crashes() const { return crashes_; }
  int down_count() const { return down_count_; }
  bool any_down() const { return down_count_ > 0; }

  /// Fail-slow ledger: episodes opened, and node-seconds spent degraded
  /// (open episodes closed at `now`).
  std::uint64_t degrade_events() const { return degrade_events_; }
  Time degraded_until(Time now) const;
  bool degraded(int node) const {
    return degrade_open_.empty() ? false
                                 : degrade_open_[static_cast<std::size_t>(
                                       node)];
  }

  /// Total node-downtime accumulated up to `now` (open outage intervals
  /// are closed at `now`).
  Time downtime_until(Time now) const;
  /// Node-seconds delivered / node-seconds possible over [0, horizon].
  double availability(Time horizon) const;

 private:
  void apply(const FaultEvent& event);
  void crash_node(int node);
  void recover_node(int node);
  void schedule_next_failure(int node);
  void schedule_next_degrade(int node);
  void begin_degrade(int node, Time heal_after);
  void end_degrade(int node, std::uint64_t episode);
  void schedule_stall(int node, std::uint64_t episode);

  sim::Engine& engine_;
  std::vector<sim::Node*> nodes_;
  FaultConfig config_;
  int initial_masters_;
  std::vector<Rng> streams_;   ///< one stochastic crash stream per node
  std::vector<Rng> degrade_streams_;  ///< one fail-slow stream per node
  std::vector<Time> down_since_;
  // Fail-slow episode state (allocated only when degrade churn is on).
  std::vector<std::uint8_t> degrade_open_;
  std::vector<std::uint64_t> degrade_epoch_;  ///< stale-event cancellation
  std::vector<Time> degrade_since_;
  Time degraded_time_ = 0;
  std::uint64_t degrade_events_ = 0;
  Time downtime_ = 0;
  int down_count_ = 0;
  std::uint64_t crashes_ = 0;
  CrashFn on_crash_;
  RecoverFn on_recover_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace wsched::fault
