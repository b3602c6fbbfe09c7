// The shared command line of every bench/example binary.
//
//   --jobs N             worker threads for point evaluation (0 = all
//                        cores; default 0 — sweeps are embarrassingly
//                        parallel and artifacts are order-independent by
//                        construction)
//   --filter S           run only points whose id contains S (repeatable,
//                        OR)
//   --out PATH           write PATH.csv and PATH.json artifacts (a sweep
//                        with a name writes PATH-<name>.csv / .json)
//   --list               print the (filtered) point ids and exit
//   --quick              CI-sized runs (also via WSCHED_QUICK=1)
//   --trace FILE         write a Chrome trace_event JSON of each evaluated
//                        point (Perfetto-loadable); with more than one
//                        point, files are suffixed -p<index>
//   --probe-interval S   sample per-node/cluster time series every S
//                        simulated seconds into a long-format CSV
//   --probe-out FILE     probe CSV path (default: derived from --trace,
//                        else probes.csv)
//   --decision-log FILE  per-dispatch decision records as CSV
//   --spans              request-causal span tracing: per-phase latency
//                        decomposition columns (span_*) in the artifacts,
//                        and flow arrows in --trace output
//   --span-out FILE      worst-K exemplar span trees as JSON (implies
//                        --spans); with more than one point, files are
//                        suffixed -p<index>
//   --exemplars K        exemplars dumped per request class (default 3)
//   --log LEVEL          structured-diagnostics verbosity
//                        (off|warn|info|debug; also via WSCHED_LOG)
//
// Overload knobs (any one present injects an overload::OverloadConfig
// into every evaluated point; all absent leaves the subsystem off):
//
//   --deadline-static S  client abandons static requests after S seconds
//   --deadline-dynamic S same for dynamic requests
//   --shed-policy P      admission policy: none|queue|util|stretch
//   --shed-queue N       queue policy: mean per-node queue threshold
//   --shed-util U        util policy: shed ramp start (cpu utilization)
//   --shed-target S      stretch policy: static-stretch SLO target
//   --breakers           enable per-node circuit breakers
//   --degraded-mode      enable the saturation detector / degraded
//                        static-only mode
//   --overload-retries N client retries of shed requests
//
// Net-model knobs (any one present injects a net::NetworkParams into every
// evaluated point; all absent leaves the interconnect ideal):
//
//   --net-loss P              per-message drop probability
//   --net-latency B[:J]       dispatch-hop base latency B seconds, plus an
//                             exponential jitter of mean J seconds
//   --net-partition T0:T1:G   scripted partition window (repeatable); G is
//                             '|'-separated groups of ids/ranges, e.g.
//                             "6:10:0-5|6,7"
//   --load-report-interval S  per-node load-report period (0 rides the
//                             load-sample period)
//   --stale-fallback S        power-of-two-choices fallback once every
//                             candidate's report is older than S seconds
//   --net-quorum B            quorum-gated promotion / step-down (default
//                             true; false exhibits split-brain)
//
// Control-plane knobs (any one present injects a ctrl::CtrlConfig into
// every evaluated point; all absent leaves the subsystem off and prior
// artifacts byte-identical):
//
//   --ctrl               enable the self-tuning control plane (online w/r
//                        estimation feeding RSRC + theta'_2 retuning)
//   --ctrl-interval S    control-loop tick period in seconds
//   --ctrl-alpha A       estimator EWMA weight
//   --ctrl-slew X        max theta'_2 step per tick
//   --ctrl-autoscale     hysteretic node power management (drains and
//                        powers slaves down/up; excludes --fault knobs)
//   --ctrl-up U          scale-up mean-busy threshold
//   --ctrl-down D        scale-down mean-busy threshold
//   --ctrl-dwell S       minimum seconds between scaling actions
//   --ctrl-min-nodes N   floor on powered nodes
//   --ctrl-masters       continuous master-count retargeting (Theorem 1 on
//                        the estimated workload); needs --ctrl-autoscale,
//                        a run with it alone is refused
//
// Gray-failure knobs (any --gray-* flag enables the fault layer and merges
// fail-slow churn into every evaluated point's FaultConfig; scripted
// crashes a bench sets itself are preserved):
//
//   --gray-mttf S        per-node mean time to a fail-slow episode
//   --gray-mttr S        mean episode length
//   --gray-cpu F         limping CPU speed factor (0.25 = 4x slower)
//   --gray-disk F        limping disk speed factor
//   --gray-stall-period S  mean gap between stall bursts inside an episode
//   --gray-stall-len S     stall burst length
//   --gray-stall-factor F  speed factor during a stall
//
// Slow-health knobs (any one present arms the latency watchdog):
//
//   --slow-health              enable with defaults
//   --slow-health-alpha A      stretch EWMA weight
//   --slow-health-degrade R    degrade when EWMA > R x median
//   --slow-health-recover R    recover when EWMA < R x median
//   --slow-health-min-samples N  completions before an EWMA is trusted
//   --slow-health-penalty X    RSRC slowness penalty (cost x (1 + X))
//   --slow-health-exclude      drop kDegraded nodes from candidate pools
//   --slow-health-period S     watchdog period (0 rides load sampling)
//
// Hedging knobs (any one present arms hedged dispatch):
//
//   --hedge               enable with the adaptive trailing-p95 delay
//   --hedge-delay S       fixed hedge delay (0 keeps the adaptive rule)
//   --hedge-factor X      adaptive delay = max(min, X * p95 stretch
//                         * the request's own demand)
//   --hedge-min-delay S   floor under the adaptive delay
//   --hedge-static        hedge static (file) requests too
//
// Bench-specific flags stay available through `args`.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/cluster.hpp"
#include "ctrl/controller.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "harness/sweep.hpp"
#include "net/network.hpp"
#include "obs/observer.hpp"
#include "util/cli.hpp"

namespace wsched::harness {

struct BenchCli {
  BenchCli(int argc, const char* const* argv);

  CliArgs args;
  SweepOptions options;
  std::string out;
  bool list = false;
  bool quick = false;
  /// Observability request from --trace / --probe-interval / --probe-out /
  /// --decision-log; run_bench applies it to every evaluated point (with
  /// per-point path suffixes so concurrent points never share a file).
  obs::ObsConfig obs;
  /// Overload request from the --deadline-*/--shed-*/--breakers/
  /// --degraded-mode/--overload-retries flags; applied to every evaluated
  /// point when `overload_set` (any of those flags present).
  overload::OverloadConfig overload;
  bool overload_set = false;
  /// Net-model request from the --net-*/--load-report-interval/
  /// --stale-fallback flags; applied to every evaluated point when
  /// `net.enabled` (any of those flags present).
  net::NetworkParams net;
  /// Control-plane request from the --ctrl-* flags; applied to every
  /// evaluated point when `ctrl.enabled` (any of those flags present).
  ctrl::CtrlConfig ctrl;
  /// Fail-slow churn request from the --gray-* flags. When `gray.enabled`,
  /// run_bench merges the degrade fields into each point's FaultConfig
  /// (and enables the fault layer) without clobbering scripted crashes.
  fault::FaultConfig gray;
  /// Latency-watchdog request from the --slow-health-* flags; applied to
  /// every evaluated point when `slow_health.enabled`.
  fault::SlowHealthConfig slow_health;
  /// Hedged-dispatch request from the --hedge-* flags; applied to every
  /// evaluated point when `hedge.enabled`.
  core::HedgeConfig hedge;
};

/// Artifact path stem for one sweep under --out (empty when --out unset).
std::string artifact_stem(const SweepSpec& spec, const BenchCli& cli);

/// `base` specialized to one grid point: when `multi`, every file path is
/// suffixed "-p<index>" before its extension (and a default probe path is
/// pinned) so points running in parallel write distinct files.
obs::ObsConfig obs_for_point(const obs::ObsConfig& base, std::size_t index,
                             bool multi);

/// The shared bench protocol: under --list prints the filtered point ids
/// and returns nullopt (the caller should exit); otherwise runs the sweep
/// with the CLI's jobs/filters — with any --trace/--probe/--decision-log
/// observability injected into each point's spec — writes <out>.csv /
/// <out>.json when --out is set, and returns the run for the bench's own
/// table rendering.
std::optional<SweepRun> run_bench(const SweepSpec& spec, const BenchCli& cli,
                                  const EvalFn& eval);

}  // namespace wsched::harness
