// Experiment harness helpers shared by the fig4/fig5/table3 benches, the
// tests and the examples: build a workload, size the master pool with
// Theorem 1, run one scheduler variant, and report the stretch factor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/policy.hpp"
#include "model/queueing.hpp"
#include "obs/observer.hpp"
#include "trace/generator.hpp"
#include "trace/profile.hpp"
#include "trace/source.hpp"

namespace wsched::core {

struct ExperimentSpec {
  trace::WorkloadProfile profile;
  int p = 32;
  double lambda = 1000.0;  ///< total request arrival rate (req/s)
  double r = 1.0 / 40.0;   ///< service-rate ratio mu_c / mu_h
  double mu_h = 1200.0;    ///< SPECweb96-calibrated static rate per node
  double duration_s = 10.0;
  double warmup_s = 2.0;
  SchedulerKind kind = SchedulerKind::kMs;
  std::uint64_t seed = 1;
  /// Master count; 0 derives it from Theorem 1 (optimize_ms).
  int m = 0;
  /// M/S' dedicated-node count; 0 derives it from the analytic model.
  int msprime_k = 0;
  /// Override OS parameters (memory size etc.); defaults are §5.1's.
  sim::OsParams os;
  /// rstat-style load sampling period in seconds.
  double load_sample_period_s = 0.10;
  /// Near-tie tolerance of the min-RSRC pick.
  double rsrc_tolerance = 0.30;
  /// Fault injection & failover (disabled by default — see
  /// fault::FaultConfig); passed through to the cluster unchanged.
  fault::FaultConfig fault;
  /// Overload control (deadlines, shedding, breakers, degraded mode;
  /// disabled by default — see overload::OverloadConfig); passed through
  /// to the cluster unchanged.
  overload::OverloadConfig overload;
  /// Network fault model (lossy/partitionable interconnect, RPC dispatch,
  /// stale load reports, quorum membership; disabled by default — see
  /// net::NetworkParams); passed through to the cluster unchanged.
  net::NetworkParams net;
  /// Self-tuning control plane (online w/r estimation, theta'_2 retuning,
  /// autoscaling; disabled by default — see ctrl::CtrlConfig); passed
  /// through to the cluster unchanged.
  ctrl::CtrlConfig ctrl;
  /// Latency-based gray-failure watchdog (disabled by default — see
  /// fault::SlowHealthConfig); passed through to the cluster unchanged.
  fault::SlowHealthConfig slow_health;
  /// Hedged dispatch with cancellation (disabled by default — see
  /// core::HedgeConfig); passed through to the cluster unchanged.
  HedgeConfig hedge;
  /// Tail-window start (seconds) for MetricsSummary::stretch_tail;
  /// <= 0 disables. Used to measure post-failover recovery.
  double metrics_tail_start_s = 0.0;
  /// Arrival-mix ratio a = lambda_c/lambda_h for the *analytic* model;
  /// <= 0 derives it from profile.cgi_fraction (the usual case).
  double a = 0.0;
  /// MMPP-bursty arrivals in the generated trace.
  bool bursty = false;
  /// Diurnal arrival-rate modulation (thinned sinusoid, see
  /// trace::GeneratorConfig) — the autoscaling Pareto drill's day/night
  /// cycle.
  bool diurnal = false;
  double diurnal_period_s = 20.0;
  double diurnal_amplitude = 0.6;
  /// Mid-run workload flip (the ext_ctrl adaptation drill): when
  /// flip_at_s is in (0, duration_s), arrivals after that instant are
  /// generated from flip_profile instead of profile (independent seed
  /// stream, arrivals offset to splice seamlessly). 0 disables.
  double flip_at_s = 0.0;
  trace::WorkloadProfile flip_profile;
  /// Frozen cluster-wide CPU-share w for RSRC (>= 0 enables; see
  /// MsOptions::fixed_w). The "stale sampled w" baseline the flip drill
  /// compares the online estimator against. -1 keeps per-request w.
  double fixed_w = -1.0;
  /// Distinct dynamic content items and their Zipf skew (passed to the
  /// trace generator; defaults match trace::GeneratorConfig).
  std::uint64_t cgi_distinct_urls = 5000;
  double cgi_zipf_s = 0.9;
  /// Per-master CGI result cache (Swala extension); 0 entries disables.
  std::size_t cgi_cache_entries = 0;
  double cgi_cache_ttl_s = 30.0;
  /// Per-node speed factors (heterogeneous extension); empty = homogeneous.
  std::vector<sim::NodeParams> node_params;
  /// Mechanism ablations (DESIGN.md section 5): per-receiver dispatch
  /// feedback and the tapered-vs-binary reservation admission gate.
  bool use_dispatch_feedback = true;
  bool binary_admission = false;
  /// Heterogeneous extension: RSRC weighted by per-node speeds.
  bool speed_aware = false;
  /// Custom dispatcher override (the extension point examples use): when
  /// set, `kind` is ignored and the factory's dispatcher routes the run.
  std::function<std::unique_ptr<Dispatcher>()> dispatcher_factory;
  /// File-backed observability (trace JSON, probe CSV, decision-log CSV):
  /// run_experiment materializes the requested collectors, attaches them,
  /// and writes each artifact after the run. Defaults to fully off.
  obs::ObsConfig obs;
  /// Caller-owned collectors attached directly (tests and embedding code);
  /// a collector already present here wins over one `obs` would create,
  /// and nothing is written for it.
  obs::Observability observer;
  /// Engine runaway guard, forwarded to the cluster: abort with
  /// sim::EngineGuardError past this many events (0 = unlimited) ...
  std::uint64_t max_events = 0;
  /// ... or past this much wall-clock time in seconds (0 = unlimited).
  double wall_budget_s = 0.0;
};

/// The analytic workload corresponding to a spec (for Theorem 1 sizing and
/// model-vs-simulation comparisons).
model::Workload analytic_workload(const ExperimentSpec& spec);

/// Master count from Theorem 1's numeric optimization, with a
/// load-proportional fallback (static share of the total offered load)
/// when no stable M/S configuration exists at the sampled rates.
int masters_from_theorem(const model::Workload& w);

/// M/S' dedicated-node count, same pattern.
int msprime_k_from_model(const model::Workload& w);

struct ExperimentResult {
  RunResult run;
  int m_used = 0;
  int k_used = 0;
  std::string scheduler;
  /// Per-class latency decomposition from span tracing; `enabled` is false
  /// (and every field zero) unless the run recorded spans.
  obs::SpanSummary spans;
};

/// The input records for a spec as a pull stream — including diurnal
/// modulation and the mid-run workload flip when configured: segment one
/// (the base profile up to flip_at_s) is drained first, then segment two
/// (flip_profile on an independent seed stream) is yielded shifted by
/// flip_at_s. Throws std::invalid_argument for an invalid workload.
class ReplayStream final : public trace::RecordSource {
 public:
  explicit ReplayStream(const ExperimentSpec& spec);

  bool next(trace::TraceRecord& out) override;
  std::size_t size_hint() const override;

 private:
  trace::TraceGenerator head_;
  std::optional<trace::TraceGenerator> tail_;  ///< flip segment, if any
  Time offset_ = 0;                            ///< flip_at_s
};

/// The input trace for a spec: ReplayStream drained into a vector.
/// Deterministic in the spec; exposed so tests and drills can inspect the
/// exact trace a run will replay.
trace::Trace generate_trace(const ExperimentSpec& spec);

/// Streams the spec's records (ReplayStream) through the configured
/// cluster. Deterministic in the spec.
ExperimentResult run_experiment(const ExperimentSpec& spec);

/// Replays `source` instead of the spec's own records, through the
/// cluster the spec configures.
ExperimentResult run_experiment(const ExperimentSpec& spec,
                                trace::RecordSource& source);

/// Convenience: the improvement ratio of `better` over `worse`
/// (stretch_worse / stretch_better - 1), the quantity plotted in Figure 4
/// and tabulated in Table 3.
double improvement(const ExperimentResult& better,
                   const ExperimentResult& worse);

}  // namespace wsched::core
