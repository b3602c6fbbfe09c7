#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "harness/artifacts.hpp"
#include "model/optimize.hpp"

namespace wsched::core {

namespace {

/// Probe CSV path: explicit, or "<trace stem>.probes.csv", or "probes.csv".
std::string derive_probe_path(const obs::ObsConfig& obs) {
  if (!obs.probe_path.empty()) return obs.probe_path;
  if (obs.trace_path.empty()) return "probes.csv";
  const std::size_t dot = obs.trace_path.find_last_of('.');
  const std::size_t slash = obs.trace_path.find_last_of('/');
  const bool has_ext =
      dot != std::string::npos &&
      (slash == std::string::npos || dot > slash);
  return (has_ext ? obs.trace_path.substr(0, dot) : obs.trace_path) +
         ".probes.csv";
}

}  // namespace

model::Workload analytic_workload(const ExperimentSpec& spec) {
  model::Workload w;
  w.p = spec.p;
  w.lambda = spec.lambda;
  w.mu_h = spec.mu_h;
  if (spec.a > 0.0) {
    w.a = spec.a;
  } else {
    const double frac = spec.profile.cgi_fraction;
    w.a = frac / (1.0 - frac);
  }
  w.r = spec.r;
  return w;
}

namespace {

/// Static share of total offered load, as a node count — the sizing that
/// balances the two tiers when Theorem 1 has no stable answer.
int load_proportional_masters(const model::Workload& w) {
  const double share = 1.0 / (1.0 + w.a / w.r);
  const int m = static_cast<int>(std::lround(share * w.p));
  return std::clamp(m, 1, w.p - 1);
}

}  // namespace

int masters_from_theorem(const model::Workload& w) {
  if (w.p < 2) return 1;
  if (const auto plan = model::optimize_ms(w)) return plan->m;
  return load_proportional_masters(w);
}

int msprime_k_from_model(const model::Workload& w) {
  if (const auto plan = model::optimize_msprime(w)) return plan->k;
  // Dynamic share of the offered load, as a node count.
  const double share = (w.a / w.r) / (1.0 + w.a / w.r);
  return std::clamp(static_cast<int>(std::lround(share * w.p)), 1, w.p);
}

namespace {

trace::GeneratorConfig generator_config(const ExperimentSpec& spec) {
  trace::GeneratorConfig gen;
  gen.profile = spec.profile;
  gen.lambda = spec.lambda;
  gen.duration_s = spec.duration_s;
  gen.mu_h = spec.mu_h;
  gen.r = spec.r;
  gen.seed = spec.seed;
  gen.bursty = spec.bursty;
  gen.diurnal = spec.diurnal;
  gen.diurnal_period_s = spec.diurnal_period_s;
  gen.diurnal_amplitude = spec.diurnal_amplitude;
  gen.cgi_distinct_urls = spec.cgi_distinct_urls;
  gen.cgi_zipf_s = spec.cgi_zipf_s;
  return gen;
}

bool flips(const ExperimentSpec& spec) {
  return !(spec.flip_at_s <= 0.0 || spec.flip_at_s >= spec.duration_s);
}

/// Segment one: the whole run, or the base profile up to the flip.
trace::GeneratorConfig head_config(const ExperimentSpec& spec) {
  trace::GeneratorConfig gen = generator_config(spec);
  if (flips(spec)) gen.duration_s = spec.flip_at_s;
  return gen;
}

/// Segment two of a flip: flip_profile for the remainder, on an
/// independent seed stream.
trace::GeneratorConfig tail_config(const ExperimentSpec& spec) {
  trace::GeneratorConfig gen = generator_config(spec);
  gen.profile = spec.flip_profile;
  gen.duration_s = spec.duration_s - spec.flip_at_s;
  gen.seed = spec.seed ^ 0x9E3779B97F4A7C15ULL;
  return gen;
}

}  // namespace

ReplayStream::ReplayStream(const ExperimentSpec& spec)
    : head_(head_config(spec)) {
  if (flips(spec)) {
    tail_.emplace(tail_config(spec));
    offset_ = from_seconds(spec.flip_at_s);
  }
}

bool ReplayStream::next(trace::TraceRecord& out) {
  if (head_.next(out)) return true;
  if (!tail_ || !tail_->next(out)) return false;
  out.arrival += offset_;  // splice seamlessly after segment one
  return true;
}

std::size_t ReplayStream::size_hint() const {
  return head_.size_hint() + (tail_ ? tail_->size_hint() : 0);
}

trace::Trace generate_trace(const ExperimentSpec& spec) {
  ReplayStream stream(spec);
  return trace::materialize(stream);
}

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  ReplayStream stream(spec);
  return run_experiment(spec, stream);
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                trace::RecordSource& source) {
  const model::Workload analytic = analytic_workload(spec);

  ClusterConfig config;
  config.p = spec.p;
  config.os = spec.os;
  config.seed = spec.seed;
  config.warmup = from_seconds(spec.warmup_s);
  config.load_sample_period = from_seconds(spec.load_sample_period_s);
  config.fault = spec.fault;
  config.overload = spec.overload;
  config.net = spec.net;
  config.ctrl = spec.ctrl;
  config.slow_health = spec.slow_health;
  config.hedge = spec.hedge;
  if (spec.metrics_tail_start_s > 0.0)
    config.metrics_tail_start = from_seconds(spec.metrics_tail_start_s);
  config.node_params = spec.node_params;
  config.use_dispatch_feedback = spec.use_dispatch_feedback;
  config.cgi_cache_entries = spec.cgi_cache_entries;
  config.cgi_cache_ttl = from_seconds(spec.cgi_cache_ttl_s);
  config.cache_hit_mu = spec.mu_h;

  int m = spec.m;
  if (spec.kind == SchedulerKind::kFlat || spec.kind == SchedulerKind::kMs1) {
    // No two-tier split: m is irrelevant but must be valid; use 1.
    m = std::max(1, std::min(spec.p, m > 0 ? m : 1));
  } else if (m <= 0) {
    m = masters_from_theorem(analytic);
  }
  config.m = std::clamp(m, 1, spec.p);

  int k = spec.msprime_k;
  if (spec.kind == SchedulerKind::kMsPrime && k <= 0)
    k = msprime_k_from_model(analytic);

  // Reservation priors: the spec's sampled rates (the paper samples average
  // arrival and service ratios in advance).
  config.reservation.initial_r = spec.r;
  config.reservation.initial_a = analytic.a;
  config.initial_dynamic_demand_s = 1.0 / (spec.r * spec.mu_h);

  MsOptions ms_options;
  ms_options.rsrc_tolerance = spec.rsrc_tolerance;
  ms_options.binary_admission = spec.binary_admission;
  ms_options.speed_aware = spec.speed_aware;
  ms_options.fixed_w = spec.fixed_w;

  std::unique_ptr<Dispatcher> dispatcher;
  if (spec.dispatcher_factory) {
    dispatcher = spec.dispatcher_factory();
  } else {
    switch (spec.kind) {
      case SchedulerKind::kFlat:
        dispatcher = make_flat();
        break;
      case SchedulerKind::kMs:
        dispatcher = make_ms(ms_options);
        break;
      case SchedulerKind::kMsNs:
        ms_options.sample_demand = false;
        dispatcher = make_ms(ms_options);
        break;
      case SchedulerKind::kMsNr:
        ms_options.reserve = false;
        dispatcher = make_ms(ms_options);
        break;
      case SchedulerKind::kMs1:
        ms_options.all_masters = true;
        dispatcher = make_ms(ms_options);
        break;
      case SchedulerKind::kMsPrime:
        dispatcher = make_msprime(std::max(1, k));
        break;
    }
  }
  // Observability: materialize the file-backed collectors spec.obs asks
  // for (skipping any the caller attached directly via spec.observer).
  // Their files open here, before the run, so an unwritable path fails
  // before any work; the trace, probe and decision sinks stream into them
  // as the run goes. The files are declared before the sinks so they
  // outlive them, and an ArtifactFile that is not closed removes itself:
  // a run that throws leaves no truncated artifact behind.
  obs::Observability obs = spec.observer;
  std::optional<harness::ArtifactFile> trace_file, probe_file, decision_file,
      span_file;
  std::unique_ptr<obs::ChromeTraceSink> trace_sink;
  std::unique_ptr<obs::ProbeRecorder> probe_recorder;
  std::unique_ptr<obs::DecisionLog> decision_log;
  std::unique_ptr<obs::CounterRegistry> counter_registry;
  if (!spec.obs.trace_path.empty() && obs.trace == nullptr) {
    trace_file.emplace(spec.obs.trace_path, "trace file");
    trace_sink = std::make_unique<obs::ChromeTraceSink>(trace_file->stream());
    obs.trace = trace_sink.get();
    if (obs.counters == nullptr) {
      // A file-backed trace carries the counter totals too (as final 'C'
      // samples), so one artifact answers "how many redispatches?".
      counter_registry = std::make_unique<obs::CounterRegistry>();
      obs.counters = counter_registry.get();
    }
  }
  if (spec.obs.probe_interval_s > 0.0 && obs.probes == nullptr) {
    probe_file.emplace(derive_probe_path(spec.obs), "probe file");
    probe_recorder = std::make_unique<obs::ProbeRecorder>(
        from_seconds(spec.obs.probe_interval_s), probe_file->stream());
    obs.probes = probe_recorder.get();
  }
  if (!spec.obs.decision_log_path.empty() && obs.decisions == nullptr) {
    decision_file.emplace(spec.obs.decision_log_path, "decision log");
    decision_log = std::make_unique<obs::DecisionLog>(decision_file->stream());
    obs.decisions = decision_log.get();
  }
  std::unique_ptr<obs::SpanRecorder> span_recorder;
  if (spec.obs.spans_on() && obs.spans == nullptr) {
    span_recorder = std::make_unique<obs::SpanRecorder>(
        spec.obs.span_path.empty() ? 0 : spec.obs.exemplars);
    obs.spans = span_recorder.get();
    // The exemplar file is only written for a harness-materialized
    // recorder; a caller-attached one is the caller's to dump.
    if (!spec.obs.span_path.empty())
      span_file.emplace(spec.obs.span_path, "span output");
  }
  config.obs = obs;
  config.max_events = spec.max_events;
  config.wall_budget_s = spec.wall_budget_s;

  ExperimentResult result;
  result.scheduler =
      spec.dispatcher_factory ? dispatcher->name() : to_string(spec.kind);
  ClusterSim cluster(config, std::move(dispatcher));
  result.run = cluster.run(source);
  result.m_used = config.m;
  result.k_used = k;

  // Counter totals ride the trace as final 'C' samples. The sink keeps
  // the name pointers, not copies, until finish() formats them, so the
  // snapshot must outlive finish().
  const auto counter_totals =
      counter_registry != nullptr
          ? counter_registry->snapshot()
          : std::vector<std::pair<std::string, std::uint64_t>>{};
  if (trace_sink != nullptr) {
    const Time end = from_seconds(result.run.sim_seconds);
    for (const auto& [name, value] : counter_totals)
      trace_sink->counter(obs::Category::kProbe, name.c_str(), spec.p, end,
                          static_cast<double>(value));
    trace_sink->finish();
    trace_file->close();
  }
  if (probe_recorder != nullptr) {
    probe_recorder->finish();
    probe_file->close();
  }
  if (decision_log != nullptr) {
    decision_log->finish();
    decision_file->close();
  }
  if (obs.spans != nullptr) result.spans = obs.spans->summarize();
  if (span_file) {
    span_recorder->write_exemplars(span_file->stream(), spec.obs.exemplars);
    span_file->close();
  }
  return result;
}

double improvement(const ExperimentResult& better,
                   const ExperimentResult& worse) {
  const double sb = better.run.metrics.stretch;
  const double sw = worse.run.metrics.stretch;
  // Degenerate runs (no completions, or a failure-mangled aggregate) can
  // produce zero, near-zero or non-finite stretches; any real run has
  // stretch >= 1, so treat anything below a near-zero floor — or any
  // non-finite input — as "no meaningful comparison" instead of emitting
  // inf/NaN into tables.
  if (!std::isfinite(sb) || !std::isfinite(sw)) return 0.0;
  if (sb <= 1e-9) return 0.0;
  return sw / sb - 1.0;
}

}  // namespace wsched::core
