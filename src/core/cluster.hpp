// ClusterSim: glues the OS-level node simulator, the load monitor, the
// reservation controller and a dispatch policy into one trace-driven run.
//
// Request lifecycle: a trace record arrives at the cluster front end; the
// dispatcher routes it (for M/S: receiving master, possible redirect); if
// redirected, the remote-CGI dispatch latency is charged; the target node
// forks/pages/schedules it through CPU and disk bursts; on completion the
// metrics and the reservation controller's response estimates are updated.
// Each replay runs as one run object whose methods are these steps
// (deliver, admit, dispatch, hop, land, complete, and the failover, shed,
// hedge and terminal exits); DESIGN.md section 3, "Request lifecycle in
// ClusterSim", maps them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/load.hpp"
#include "core/metrics.hpp"
#include "core/policy.hpp"
#include "core/reservation.hpp"
#include "ctrl/controller.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"
#include "obs/observer.hpp"
#include "overload/overload.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace wsched::core {

/// Hedged dispatch against tail latency (gray-failure defense). When a
/// dynamic request is still unsettled after its hedge delay, a copy is
/// dispatched to the next-best node (the primary's node excluded from the
/// pick); the first completion wins and the loser is cancelled, freeing
/// its queue/CPU/disk occupancy. Off by default — the disabled config
/// constructs nothing and keeps every artifact byte-identical.
struct HedgeConfig {
  bool enabled = false;
  /// Fixed hedge delay in seconds; 0 uses the adaptive rule:
  /// delay = delay_factor * (trailing per-class p95 stretch) * demand,
  /// i.e. a request is overdue once it has waited `delay_factor` times
  /// the tail-normal multiple of its own service demand. Normalizing by
  /// demand keeps hedging from duplicating intrinsically-large jobs.
  double delay_s = 0.0;
  double delay_factor = 1.0;
  /// Floor under the adaptive delay (and the delay used until enough
  /// completions have been observed to trust the trailing quantile).
  double min_delay_s = 0.02;
  /// Hedge static (file) requests too; default hedges only dynamic work,
  /// where the paper's tail lives.
  bool hedge_static = false;
};

struct ClusterConfig {
  int p = 32;  ///< nodes
  int m = 4;   ///< masters (nodes [0, m)); ignored by Flat
  sim::OsParams os;
  /// Per-node speed factors; empty means homogeneous 1.0 nodes.
  std::vector<sim::NodeParams> node_params;
  Time load_sample_period = 100 * kMillisecond;
  Time reservation_update_period = 1 * kSecond;
  Time warmup = 2 * kSecond;
  std::uint64_t seed = 1;
  /// Priors for the reservation controller (p and m are overwritten).
  ReservationConfig reservation;
  /// Prior for the dispatch-feedback demand estimate (mean dynamic service
  /// demand in seconds, i.e. 1/(r*mu_h)); refined online from completions.
  double initial_dynamic_demand_s = 0.03;
  /// Per-receiver dispatch feedback (see DispatchFeedback). Disabling it
  /// reproduces the stale-information herding pathology for ablation.
  bool use_dispatch_feedback = true;
  /// CGI-cache extension (Swala, §6): entries per master; 0 disables.
  std::size_t cgi_cache_entries = 0;
  /// Validity window of a cached dynamic response.
  Time cgi_cache_ttl = 30 * kSecond;
  /// Static service rate used to cost a cache-hit serve (a hit is a file
  /// fetch of the stored response).
  double cache_hit_mu = 1200.0;
  /// Fault injection & failover (see fault::FaultConfig). Disabled by
  /// default; a disabled fault layer leaves the run bit-identical to one
  /// without the subsystem.
  fault::FaultConfig fault;
  /// Overload control: deadlines/abandonment, admission (load shedding),
  /// circuit breakers, degraded static-only mode (see
  /// overload::OverloadConfig). Every knob at its disabled default keeps
  /// the controller out of the run entirely — bit-identical to a build
  /// without the subsystem.
  overload::OverloadConfig overload;
  /// Network fault model (see net::NetworkParams): message-level latency /
  /// loss / partitions, at-least-once RPC dispatch, in-band load reports
  /// with staleness-aware RSRC, quorum membership. Disabled by default;
  /// the disabled config (== NetworkParams::ideal()) constructs nothing
  /// and keeps the run byte-identical to a build without src/net/.
  net::NetworkParams net;
  /// Self-tuning control plane (see ctrl::CtrlConfig): online w/r
  /// estimation feeding RSRC, slew-limited theta'_2 retuning, hysteretic
  /// autoscaling with drain-and-migrate power-downs. Disabled by default;
  /// a disabled config constructs nothing and keeps the run byte-identical
  /// to a build without src/ctrl/. Autoscaling and the fault layer are
  /// mutually exclusive (the health monitor would declare drained nodes
  /// dead and the injector would double-recover them).
  ctrl::CtrlConfig ctrl;
  /// Latency-based gray-failure watchdog (see fault::SlowHealthConfig):
  /// flags limping nodes kDegraded from completion-stretch outliers and
  /// feeds the RSRC slowness penalty. Disabled by default — constructs
  /// nothing, perturbs nothing.
  fault::SlowHealthConfig slow_health;
  /// Hedged dispatch with cancellation (see HedgeConfig). Disabled by
  /// default.
  HedgeConfig hedge;
  /// Optional tail-window start for MetricsSummary::stretch_tail
  /// (<= 0 disables); used to measure post-failover recovery.
  Time metrics_tail_start = 0;
  /// Observability collectors (tracer, counters, decision log, probes);
  /// every pointer null by default — a null bundle leaves the run
  /// bit-identical to a build without the subsystem.
  obs::Observability obs;
  /// Runaway guard: abort the run (sim::EngineGuardError) after this many
  /// events (0 = unlimited) ...
  std::uint64_t max_events = 0;
  /// ... or after this much wall-clock time in seconds (0 = unlimited).
  double wall_budget_s = 0.0;
};

/// Every outcome of one run, each tallied once: ClusterSim increments
/// these fields directly, or copies a subsystem's own count at run end.
/// core/metric_table.hpp maps them to sweep columns and counter names.
struct RunResult {
  MetricsSummary metrics;
  double mean_cpu_utilization = 0.0;
  double mean_disk_utilization = 0.0;
  std::vector<double> node_cpu_utilization;
  std::vector<double> node_disk_utilization;
  std::uint64_t events = 0;
  double sim_seconds = 0.0;
  /// The most hedge-state entries held at once (0 with hedging off): the
  /// widest spread from the oldest unsettled request to the newest
  /// arrival. A resident-memory gauge, not a metric column.
  std::size_t hedge_window_high_water = 0;
  /// Reservation-controller end state (M/S family only).
  double theta_limit = 0.0;
  double a_hat = 0.0;
  double r_hat = 0.0;
  double master_fraction = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Routing decisions (first dispatch, client retries, migrations) and
  /// the remote ones among them; dynamic requests the reservation gate
  /// turned away from a master.
  std::uint64_t dispatch_requests = 0;
  std::uint64_t dispatch_remote = 0;
  std::uint64_t reservation_rejections = 0;
  std::uint64_t reservation_updates = 0;  ///< theta'_2 update ticks
  /// Node-model totals over all nodes (sim::NodeCounts).
  std::uint64_t cpu_forks = 0;
  std::uint64_t cpu_context_switches = 0;
  std::uint64_t cpu_preemptions = 0;
  std::uint64_t cpu_slices = 0;
  std::uint64_t disk_slices = 0;
  /// CGI-cache extension statistics (0 when the cache is off).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  double cache_hit_ratio() const {
    return cache_lookups > 0 ? static_cast<double>(cache_hits) /
                                   static_cast<double>(cache_lookups)
                             : 0.0;
  }
  /// Fault/failover statistics (defaults when fault injection is off).
  double availability = 1.0;       ///< node-seconds up / node-seconds total
  std::uint64_t node_crashes = 0;  ///< crash faults that actually fired
  std::uint64_t redispatches = 0;  ///< failover re-dispatch hops taken
  std::uint64_t timeouts = 0;      ///< requests dropped at the retry cap
  std::uint64_t promotions = 0;    ///< slaves promoted to master
  /// Overload-control statistics (defaults when the subsystem is off).
  std::uint64_t shed = 0;              ///< requests rejected at admission
  std::uint64_t abandoned = 0;         ///< requests past their deadline
  std::uint64_t overload_retries = 0;  ///< client retries of shed requests
  std::uint64_t breaker_trips = 0;     ///< breaker open / re-open events
  std::uint64_t degraded_entries = 0;  ///< degraded-mode entries
  double degraded_seconds = 0.0;       ///< total time degraded
  /// Net-model statistics (defaults when the network model is off). With
  /// the net model on but no fault layer, `timeouts` above counts
  /// dispatches lost on the wire after all RPC attempts.
  bool net_enabled = false;
  std::uint64_t net_sent = 0;
  std::uint64_t net_wire_lost = 0;        ///< random wire loss
  std::uint64_t net_partition_drops = 0;  ///< dropped across a partition
  std::uint64_t net_lost() const {
    return net_wire_lost + net_partition_drops;
  }
  std::uint64_t net_duplicates = 0;  ///< retransmit copies deduplicated
  std::uint64_t net_rpc_retries = 0;
  std::uint64_t net_rpc_failures = 0;  ///< calls that exhausted attempts
  std::uint64_t net_reports = 0;       ///< load reports delivered remotely
  std::uint64_t net_stale_fallbacks = 0;  ///< power-of-two-choices picks
  std::uint64_t net_partitions = 0;       ///< partition windows opened
  std::uint64_t net_stepdowns = 0;  ///< minority masters stepping down
  std::uint64_t net_split_brain_rounds = 0;  ///< rounds with > m claimants
  /// Completions inside their SLO per second of measured (post-warmup)
  /// simulated time — the headline graceful-degradation metric.
  double goodput_rps = 0.0;
  /// Gray-failure statistics (defaults when fail-slow injection and the
  /// slow-health watchdog are off).
  std::uint64_t degrade_events = 0;   ///< fail-slow episodes opened
  double degraded_node_s = 0.0;       ///< node-seconds spent limping
  bool slow_health_enabled = false;
  std::uint64_t slow_degraded = 0;    ///< watchdog kDegraded transitions
  std::uint64_t slow_recovered = 0;   ///< watchdog recoveries
  /// Hedged-dispatch statistics (defaults when hedging is off).
  bool hedging_enabled = false;
  std::uint64_t hedges_launched = 0;  ///< hedge copies dispatched
  std::uint64_t hedge_wins = 0;       ///< requests settled by the copy
  std::uint64_t hedge_cancellations = 0;  ///< losers cancelled mid-flight
  std::uint64_t hedges_skipped = 0;   ///< armed hedges that found no
                                      ///< distinct healthy target
  /// Control-plane statistics (defaults when the subsystem is off).
  bool ctrl_enabled = false;
  std::uint64_t ctrl_retunes = 0;     ///< reservation retune ticks applied
  std::uint64_t ctrl_scale_ups = 0;   ///< nodes powered up
  std::uint64_t ctrl_scale_downs = 0; ///< nodes drained and powered down
  std::uint64_t ctrl_migrations = 0;  ///< jobs migrated off drained nodes
  std::uint64_t ctrl_retargets = 0;   ///< master-count steps applied
  double ctrl_w_hat = 0.0;            ///< final estimated w
  double ctrl_r_hat = 0.0;            ///< final estimated r
  /// Powered node-seconds over the whole run (the energy axis of the
  /// ext_ctrl Pareto drill; == p * sim_seconds without autoscaling).
  double energy_node_s = 0.0;
  int powered_min = 0;  ///< smallest powered count reached
};

class ClusterSim {
 public:
  ClusterSim(ClusterConfig config, std::unique_ptr<Dispatcher> dispatcher);

  /// Replays the records `source` yields to completion and returns
  /// aggregated results; an empty source returns RunResult{}. Records are
  /// pulled one ahead of the simulated clock, so only the pending record
  /// and in-flight requests are resident. Deterministic in (config.seed,
  /// records, dispatcher).
  RunResult run(trace::RecordSource& source);

  /// Replays a materialized trace (a cursor over it, through the above).
  RunResult run(const trace::Trace& trace);

  const Dispatcher& dispatcher() const { return *dispatcher_; }

 private:
  ClusterConfig config_;
  std::unique_ptr<Dispatcher> dispatcher_;
};

}  // namespace wsched::core
