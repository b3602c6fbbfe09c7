// Chaos schedules: one replayable, shrinkable description of a composed
// adversarial scenario across every subsystem the repo has grown — crash
// churn and scripted crashes (src/fault/), fail-slow degrade/stall
// episodes, a lossy/partitionable interconnect (src/net/), overload
// deadlines and shedding (src/overload/), the self-tuning control plane
// (src/ctrl/), the gray-failure defenses (watchdog + hedging), and span
// tracing riding on top as a live invariant probe.
//
// A ChaosScheduleGenerator samples a schedule from a single SplitMix64-
// seeded stream; the schedule (not the generator) is the replay unit: it
// serializes to a canonical JSON file, parses back byte-identically, and
// lowers to a core::ExperimentSpec via to_spec(), so one seed — or one
// committed repro file — reproduces the exact run. Construction respects
// the cluster's own composition rules (core::composition_problem):
// partitions imply the fault layer, and a schedule exercises either
// fault-layer chaos or ctrl autoscaling, never both.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace wsched::check {

/// One scripted crash episode: `node` dies at `at_s`; recovers at
/// `recover_s`, or stays down for the rest of the run when recover_s <= 0.
struct CrashEpisode {
  double at_s = 0.0;
  int node = 0;
  double recover_s = 0.0;
  bool operator==(const CrashEpisode&) const = default;
};

/// One partition window: during [from_s, until_s) nodes [0, cut) are split
/// from nodes [cut, p). cut = 1 isolates master 0 — the window that forces
/// a promotion decision mid-partition.
struct PartitionWindow {
  double from_s = 0.0;
  double until_s = 0.0;
  int cut = 1;
  bool operator==(const PartitionWindow&) const = default;
};

/// The full sampled scenario. Every field is the *scenario* coordinate, not
/// the mechanism: to_spec() maps them onto the subsystem configs. Defaults
/// describe the benign baseline (no chaos at all), which is also what the
/// shrinker drives toward.
struct ChaosSchedule {
  std::uint64_t seed = 1;  ///< generator seed; also salts the run seed

  // --- workload ---
  double horizon_s = 6.0;
  double warmup_s = 1.0;
  int p = 8;
  int m = 2;
  double lambda = 400.0;
  std::string profile = "ksu";  ///< ksu | ucb | dec | adl
  bool bursty = false;
  bool diurnal = false;
  double diurnal_period_s = 6.0;
  double diurnal_amplitude = 0.5;
  double flip_at_s = 0.0;  ///< 0 disables the mid-run workload flip
  std::string flip_profile = "ucb";

  // --- fault layer (mutually exclusive with autoscale) ---
  bool fault = false;
  std::vector<CrashEpisode> crashes;
  double crash_mttf_s = 0.0;  ///< stochastic crash churn; 0 = scripted only
  double crash_mttr_s = 3.0;
  double degrade_mttf_s = 0.0;  ///< fail-slow churn; 0 disables
  double degrade_mttr_s = 2.0;
  double degrade_cpu_factor = 0.25;
  double degrade_disk_factor = 0.5;
  double stall_period_s = 0.0;  ///< stall bursts inside degrade episodes
  double stall_len_s = 0.02;

  // --- interconnect ---
  bool net = false;
  double net_loss = 0.0;
  double net_latency_jitter_s = 0.0;
  double net_reorder = 0.0;
  bool quorum = true;  ///< false is the planted split-brain bug
  double stale_max_age_s = 0.0;
  double load_report_interval_s = 0.0;
  std::vector<PartitionWindow> partitions;

  // --- overload control ---
  double deadline_static_s = 0.0;
  double deadline_dynamic_s = 0.0;
  std::string shed_policy = "none";  ///< none | queue | util | stretch
  int overload_retries = 0;
  bool breakers = false;
  bool degraded_mode = false;

  // --- control plane ---
  bool ctrl = false;
  double ctrl_interval_s = 0.5;
  double theta_slew = 0.05;
  bool autoscale = false;  ///< only ever true when !fault
  int min_powered = 2;
  bool retarget_masters = false;

  // --- gray-failure defenses ---
  bool slow_health = false;
  bool slow_health_exclude = false;
  bool hedge = false;
  double hedge_delay_s = 0.0;  ///< 0 keeps the adaptive rule

  // --- observability probes ---
  bool spans = false;  ///< span ledger rides along as a live invariant
  bool operator==(const ChaosSchedule&) const = default;
};

/// Scenario-space bounds for the generator. quick() is the CI smoke size;
/// full() the nightly hunt size.
struct ChaosGenConfig {
  double horizon_lo_s = 8.0;
  double horizon_hi_s = 14.0;
  /// Per-node arrival-rate band (lambda = p * uniform(lo, hi)).
  double lambda_per_node_lo = 35.0;
  double lambda_per_node_hi = 85.0;
  /// Probability that a schedule takes the autoscale branch instead of the
  /// fault branch (the two are exclusive by construction).
  double autoscale_prob = 0.25;

  static ChaosGenConfig quick() {
    ChaosGenConfig c;
    c.horizon_lo_s = 4.0;
    c.horizon_hi_s = 6.0;
    return c;
  }
  static ChaosGenConfig full() { return ChaosGenConfig{}; }
};

/// Samples the composed scenario for `seed`. Pure: the same (seed, config)
/// always yields the same schedule, and distinct seeds draw from
/// independent SplitMix64-derived streams.
ChaosSchedule generate_schedule(std::uint64_t seed,
                                const ChaosGenConfig& config);

/// Canonical JSON serialization (stable member order, canonical number
/// formatting) — the replay/corpus file format, and the byte-equality key
/// the shrinker and the determinism tests compare.
std::string to_json(const ChaosSchedule& schedule);

/// Parses a schedule file; an absent member keeps its default. Malformed
/// JSON, a wrong "format" tag or version, a value of the wrong kind and an
/// unknown member (e.g. "crashes[0].nod") throw std::invalid_argument.
ChaosSchedule schedule_from_json(const std::string& text);

/// Lowers the scenario onto an ExperimentSpec (M/S scheduler, guard rails
/// on). Throws std::invalid_argument with validate()'s message when the
/// schedule is not valid — the generator never produces such a schedule,
/// but hand-edited repro files might.
core::ExperimentSpec to_spec(const ChaosSchedule& schedule);

/// The schedule's own rules, then the cluster's layer-composition rules
/// (core::composition_problem) on the spec it lowers to; returns the first
/// problem as a human-readable message, empty when well-formed.
std::string validate(const ChaosSchedule& schedule);

}  // namespace wsched::check
