#include "harness/bench_cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/log.hpp"

namespace wsched::harness {

namespace {

/// One half of --net-latency B[:J]: the whole token must be a finite
/// number of seconds >= 0.
double parse_latency_s(const std::string& flag, std::size_t begin,
                       std::size_t end) {
  const char* first = flag.data() + begin;
  const char* last = flag.data() + end;
  double seconds = 0.0;
  const auto [ptr, ec] = std::from_chars(first, last, seconds);
  if (ec != std::errc{} || ptr != last || !std::isfinite(seconds) ||
      seconds < 0.0)
    throw std::invalid_argument(
        "--net-latency expects B or B:J finite seconds >= 0, got " + flag);
  return seconds;
}

}  // namespace

BenchCli::BenchCli(int argc, const char* const* argv)
    : args(argc, argv),
      out(args.get("out", "")),
      list(args.get_bool("list", false)),
      quick(env_flag("WSCHED_QUICK", false) || args.get_bool("quick", false)) {
  options.jobs = static_cast<int>(args.get_int("jobs", 0));
  options.filters = args.get_all("filter");
  obs.trace_path = args.get("trace", "");
  obs.probe_interval_s = args.get_double("probe-interval", 0.0);
  obs.probe_path = args.get("probe-out", "");
  obs.decision_log_path = args.get("decision-log", "");
  obs.spans = args.get_bool("spans", false);
  obs.span_path = args.get("span-out", "");
  obs.exemplars = static_cast<int>(args.get_int("exemplars", obs.exemplars));
  if (args.has("log")) {
    obs::set_log_level(obs::parse_log_level(args.get("log", "off")));
  } else {
    obs::init_log_from_env();
  }
  // Benches quarantine broken points (EngineGuardError and friends) into
  // SweepRun::failures instead of aborting a long sweep on one bad
  // configuration; library callers keep fail-fast semantics by default.
  options.quarantine = true;
  overload.deadline.static_s = args.get_double("deadline-static", 0.0);
  overload.deadline.dynamic_s = args.get_double("deadline-dynamic", 0.0);
  overload.admission.policy =
      overload::parse_admission_policy(args.get("shed-policy", "none"));
  overload.admission.max_queue =
      args.get_double("shed-queue", overload.admission.max_queue);
  overload.admission.max_utilization =
      args.get_double("shed-util", overload.admission.max_utilization);
  overload.admission.stretch_target =
      args.get_double("shed-target", overload.admission.stretch_target);
  overload.breaker.enabled = args.get_bool("breakers", false);
  overload.saturation.enabled = args.get_bool("degraded-mode", false);
  overload.max_retries = static_cast<int>(
      args.get_int("overload-retries", overload.max_retries));
  overload_set =
      args.has("deadline-static") || args.has("deadline-dynamic") ||
      args.has("shed-policy") || args.has("shed-queue") ||
      args.has("shed-util") || args.has("shed-target") ||
      args.has("breakers") || args.has("degraded-mode") ||
      args.has("overload-retries");
  net.loss = args.get_double("net-loss", net.loss);
  if (args.has("net-latency")) {
    const std::string net_latency = args.get("net-latency", "");
    const std::size_t end = net_latency.size();
    const std::size_t colon = std::min(net_latency.find(':'), end);
    net.latency_base_s = parse_latency_s(net_latency, 0, colon);
    if (colon < end)
      net.latency_jitter_s = parse_latency_s(net_latency, colon + 1, end);
  }
  for (const std::string& window : args.get_all("net-partition"))
    net.partitions.push_back(net::parse_partition_spec(window));
  net.load_report_interval_s =
      args.get_double("load-report-interval", net.load_report_interval_s);
  net.stale_max_age_s = args.get_double("stale-fallback", net.stale_max_age_s);
  net.quorum = args.get_bool("net-quorum", net.quorum);
  net.enabled = args.has("net-loss") || args.has("net-latency") ||
                args.has("net-partition") || args.has("load-report-interval") ||
                args.has("stale-fallback") || args.has("net-quorum");
  ctrl.interval_s = args.get_double("ctrl-interval", ctrl.interval_s);
  ctrl.estimate_alpha = args.get_double("ctrl-alpha", ctrl.estimate_alpha);
  ctrl.theta_slew = args.get_double("ctrl-slew", ctrl.theta_slew);
  ctrl.autoscale = args.get_bool("ctrl-autoscale", false);
  ctrl.scale_up_util = args.get_double("ctrl-up", ctrl.scale_up_util);
  ctrl.scale_down_util = args.get_double("ctrl-down", ctrl.scale_down_util);
  ctrl.dwell_s = args.get_double("ctrl-dwell", ctrl.dwell_s);
  ctrl.min_powered =
      static_cast<int>(args.get_int("ctrl-min-nodes", ctrl.min_powered));
  ctrl.retarget_masters = args.get_bool("ctrl-masters", false);
  // Any tuning flag implies the control plane; a bare `--ctrl false` (or
  // no ctrl flags at all) keeps the subsystem out of the run entirely.
  ctrl.enabled =
      args.get_bool("ctrl", false) || args.has("ctrl-interval") ||
      args.has("ctrl-alpha") || args.has("ctrl-slew") ||
      args.has("ctrl-autoscale") || args.has("ctrl-up") ||
      args.has("ctrl-down") || args.has("ctrl-dwell") ||
      args.has("ctrl-min-nodes") || args.has("ctrl-masters");
  gray.degrade_mttf_s = args.get_double("gray-mttf", gray.degrade_mttf_s);
  gray.degrade_mttr_s = args.get_double("gray-mttr", gray.degrade_mttr_s);
  gray.degrade_cpu_factor =
      args.get_double("gray-cpu", gray.degrade_cpu_factor);
  gray.degrade_disk_factor =
      args.get_double("gray-disk", gray.degrade_disk_factor);
  gray.stall_period_s =
      args.get_double("gray-stall-period", gray.stall_period_s);
  gray.stall_len_s = args.get_double("gray-stall-len", gray.stall_len_s);
  gray.stall_factor = args.get_double("gray-stall-factor", gray.stall_factor);
  gray.enabled = args.has("gray-mttf") || args.has("gray-mttr") ||
                 args.has("gray-cpu") || args.has("gray-disk") ||
                 args.has("gray-stall-period") || args.has("gray-stall-len") ||
                 args.has("gray-stall-factor");
  slow_health.alpha = args.get_double("slow-health-alpha", slow_health.alpha);
  slow_health.degrade_ratio =
      args.get_double("slow-health-degrade", slow_health.degrade_ratio);
  slow_health.recover_ratio =
      args.get_double("slow-health-recover", slow_health.recover_ratio);
  slow_health.min_samples = static_cast<int>(
      args.get_int("slow-health-min-samples", slow_health.min_samples));
  slow_health.penalty =
      args.get_double("slow-health-penalty", slow_health.penalty);
  slow_health.exclude = args.get_bool("slow-health-exclude", false);
  slow_health.check_period_s =
      args.get_double("slow-health-period", slow_health.check_period_s);
  slow_health.enabled =
      args.get_bool("slow-health", false) || args.has("slow-health-alpha") ||
      args.has("slow-health-degrade") || args.has("slow-health-recover") ||
      args.has("slow-health-min-samples") ||
      args.has("slow-health-penalty") || args.has("slow-health-exclude") ||
      args.has("slow-health-period");
  hedge.delay_s = args.get_double("hedge-delay", hedge.delay_s);
  hedge.delay_factor = args.get_double("hedge-factor", hedge.delay_factor);
  hedge.min_delay_s = args.get_double("hedge-min-delay", hedge.min_delay_s);
  hedge.hedge_static = args.get_bool("hedge-static", false);
  hedge.enabled = args.get_bool("hedge", false) || args.has("hedge-delay") ||
                  args.has("hedge-factor") || args.has("hedge-min-delay") ||
                  args.has("hedge-static");
}

namespace {

/// "out.json" + index 3 -> "out-p3.json"; extensionless paths get the
/// suffix appended.
std::string suffix_path(const std::string& path, std::size_t index) {
  if (path.empty()) return path;
  const std::size_t dot = path.find_last_of('.');
  const std::size_t slash = path.find_last_of('/');
  const bool has_ext =
      dot != std::string::npos &&
      (slash == std::string::npos || dot > slash);
  const std::string tag = "-p" + std::to_string(index);
  return has_ext ? path.substr(0, dot) + tag + path.substr(dot)
                 : path + tag;
}

}  // namespace

obs::ObsConfig obs_for_point(const obs::ObsConfig& base, std::size_t index,
                             bool multi) {
  if (!multi) return base;
  obs::ObsConfig result = base;
  result.trace_path = suffix_path(base.trace_path, index);
  result.probe_path = suffix_path(base.probe_path, index);
  result.decision_log_path = suffix_path(base.decision_log_path, index);
  result.span_path = suffix_path(base.span_path, index);
  // Probes on with neither an explicit path nor a trace to derive from
  // would collapse every point onto "probes.csv"; pin the default here.
  if (base.probe_interval_s > 0.0 && base.probe_path.empty() &&
      base.trace_path.empty())
    result.probe_path = suffix_path("probes.csv", index);
  return result;
}

std::string artifact_stem(const SweepSpec& spec, const BenchCli& cli) {
  if (cli.out.empty()) return "";
  return spec.name.empty() ? cli.out : cli.out + "-" + spec.name;
}

std::optional<SweepRun> run_bench(const SweepSpec& spec, const BenchCli& cli,
                                  const EvalFn& eval) {
  if (cli.list) {
    for (const GridPoint& point : expand(spec))
      if (matches_filters(point.id, cli.options.filters))
        std::printf("%s\n", point.id.c_str());
    return std::nullopt;
  }

  // Observability injection: each evaluated point gets the CLI's obs
  // request in its spec (run_experiment materializes the collectors).
  // With several points, file paths are suffixed by grid index so parallel
  // evaluation never interleaves writers.
  EvalFn wrapped = eval;
  if (cli.obs.any() || cli.overload_set || cli.net.enabled ||
      cli.ctrl.enabled || cli.gray.enabled || cli.slow_health.enabled ||
      cli.hedge.enabled) {
    std::size_t filtered = 0;
    for (const GridPoint& point : expand(spec))
      if (matches_filters(point.id, cli.options.filters)) ++filtered;
    const bool multi = filtered > 1;
    wrapped = [&eval, &cli, multi](const GridPoint& point) {
      GridPoint traced = point;
      if (cli.obs.any())
        traced.spec.obs = obs_for_point(cli.obs, point.index, multi);
      if (cli.overload_set) traced.spec.overload = cli.overload;
      if (cli.net.enabled) traced.spec.net = cli.net;
      if (cli.ctrl.enabled) traced.spec.ctrl = cli.ctrl;
      if (cli.gray.enabled) {
        // Merge (don't clobber): a bench's own scripted crashes survive,
        // only the fail-slow churn fields come from the CLI.
        fault::FaultConfig& fault = traced.spec.fault;
        fault.enabled = true;
        fault.degrade_mttf_s = cli.gray.degrade_mttf_s;
        fault.degrade_mttr_s = cli.gray.degrade_mttr_s;
        fault.degrade_cpu_factor = cli.gray.degrade_cpu_factor;
        fault.degrade_disk_factor = cli.gray.degrade_disk_factor;
        fault.stall_period_s = cli.gray.stall_period_s;
        fault.stall_len_s = cli.gray.stall_len_s;
        fault.stall_factor = cli.gray.stall_factor;
      }
      if (cli.slow_health.enabled) traced.spec.slow_health = cli.slow_health;
      if (cli.hedge.enabled) traced.spec.hedge = cli.hedge;
      return eval(traced);
    };
  }

  SweepRun run = run_sweep(spec, cli.options, wrapped);
  for (const SweepFailure& failure : run.failures)
    std::fprintf(stderr, "quarantined point %zu (%s): %s\n", failure.index,
                 failure.id.c_str(), failure.error.c_str());

  const std::string stem = artifact_stem(spec, cli);
  if (!stem.empty()) {
    std::ofstream csv(stem + ".csv");
    if (!csv) throw std::runtime_error("cannot open " + stem + ".csv");
    write_csv(csv, run.rows);
    std::ofstream json(stem + ".json");
    if (!json) throw std::runtime_error("cannot open " + stem + ".json");
    write_json(json, run.rows);
    std::printf("wrote %s.csv and %s.json (%zu rows)\n", stem.c_str(),
                stem.c_str(), run.rows.size());
  }
  return run;
}

}  // namespace wsched::harness
