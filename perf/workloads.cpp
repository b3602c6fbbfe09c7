#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "check/invariants.hpp"
#include "check/runner.hpp"
#include "harness/artifacts.hpp"
#include "harness/grids.hpp"
#include "spans.hpp"
#include "util/stats.hpp"

namespace wsched_perf {

namespace {

using namespace wsched;

// Simulated horizons. --smoke cuts every workload to about 1/20 of its work.
struct Sizes {
  double grid_duration_s;
  double grid_warmup_s;
  double replay_s;
  double faulted_s;
  double observed_s;
  int chaos_schedules;
};
constexpr Sizes kFull{10.0, 2.0, 300.0, 300.0, 60.0, 200};
constexpr Sizes kSmoke{0.5, 0.1, 15.0, 15.0, 3.0, 10};

// bench/fig4_optimizations' evaluation of one grid point: per replication,
// M/S sizes its masters by Theorem 1, then M/S-ns, M/S-nr and M/S-1 replay
// the same trace with that master count.
constexpr int kFig4Replications = 3;
constexpr std::uint64_t kFig4SeedStride = 7919;
constexpr std::size_t kRunsPerPoint = 4 * kFig4Replications;

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

/// The result rows as CSV and JSON, as a bench's --out writes them.
std::vector<std::string> write_rows(const std::string& dir,
                                    const std::string& stem,
                                    const std::vector<harness::ResultRow>& rows) {
  const Span span("harness.write_artifacts");
  const std::string csv = dir + "/" + stem + ".csv";
  const std::string json = dir + "/" + stem + ".json";
  std::ofstream csv_out(csv, std::ios::binary);
  harness::write_csv(csv_out, rows);
  std::ofstream json_out(json, std::ios::binary);
  harness::write_json(json_out, rows);
  if (!csv_out || !json_out) throw std::runtime_error("cannot write " + csv);
  return {csv, json};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes(static_cast<std::size_t>(std::filesystem::file_size(path)),
                    '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!in) throw std::runtime_error("cannot read " + path);
  return bytes;
}

/// run_schedule's canonical full-schema row.
harness::ResultRow full_row(const core::ExperimentResult& result) {
  harness::ResultRow row;
  harness::append_metrics(row, result);
  harness::append_net_metrics(row, result);
  harness::append_ctrl_metrics(row, result);
  harness::append_gray_metrics(row, result);
  harness::append_span_metrics(row, result);
  return row;
}

std::string join_violations(const check::InvariantReport& report) {
  std::string out;
  for (const check::Violation& v : report.violations)
    out += (out.empty() ? "" : "; ") + v.invariant + ": " + v.detail;
  return out;
}

/// Means over a pass's runs of the modelled cluster's outcomes.
struct SimTotals {
  double stretch = 0.0;
  double p95_stretch = 0.0;
  double goodput_rps = 0.0;
  double submitted = 0.0;
  double completed = 0.0;
  double events = 0.0;
  std::size_t runs = 0;

  void add(double s, double p95, double goodput, double sub, double done) {
    stretch += s;
    p95_stretch += p95;
    goodput_rps += goodput;
    submitted += sub;
    completed += done;
    ++runs;
  }
  void add(const core::ExperimentResult& r) {
    add(r.run.metrics.stretch, r.run.metrics.p95_stretch, r.run.goodput_rps,
        static_cast<double>(r.run.submitted),
        static_cast<double>(r.run.completed));
    events += static_cast<double>(r.run.events);
  }
};

void enable_net(core::ExperimentSpec& s) {
  s.net.enabled = true;
  s.net.loss = 0.01;
}
void enable_fault(core::ExperimentSpec& s) {
  s.fault.enabled = true;
  s.fault.mttf_s = 120.0;
  s.fault.mttr_s = 5.0;
  s.fault.degrade_mttf_s = 60.0;
  s.fault.degrade_mttr_s = 5.0;
  s.fault.stall_period_s = 1.0;
}
void enable_watchdog(core::ExperimentSpec& s) { s.slow_health.enabled = true; }
void enable_hedge(core::ExperimentSpec& s) { s.hedge.enabled = true; }
void enable_overload(core::ExperimentSpec& s) {
  s.overload.deadline.static_s = 2.0;
  s.overload.deadline.dynamic_s = 5.0;
  s.overload.breaker.enabled = true;
  s.overload.breaker.queue_trip = 64.0;
}
void enable_ctrl(core::ExperimentSpec& s) { s.ctrl.enabled = true; }
void enable_spans(core::ExperimentSpec& s) { s.obs.spans = true; }

}  // namespace

const std::vector<Layer>& runtime_layers() {
  static const std::vector<Layer> layers = {
      {"net.", enable_net},
      {"fault.", enable_fault},
      {"fault.watchdog_", enable_watchdog},
      {"core.hedge_", enable_hedge},
      {"overload.", enable_overload},
      {"ctrl.", enable_ctrl},
      {"obs.spans_", enable_spans},
  };
  return layers;
}

core::ExperimentSpec base_spec(std::uint64_t seed, double horizon_s) {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 32;
  spec.lambda = 1000.0;
  spec.duration_s = horizon_s;
  spec.seed = seed;
  return spec;
}

Plan make_plan(const Options& options) {
  const Span span("setup");
  const Sizes& sz = options.smoke ? kSmoke : kFull;
  Plan plan;
  plan.options = options;
  const std::string& w = options.workload;
  if (w == "paper-grid") {
    plan.kind = Plan::Kind::kSweep;
    plan.jobs = 2;
    harness::SweepSpec& sweep = plan.sweep;
    sweep.name = w;
    sweep.base.duration_s = sz.grid_duration_s;
    sweep.base.warmup_s = sz.grid_warmup_s;
    sweep.base.seed = options.seed;
    sweep.axes = {
        harness::table2_cell_axis({32}),
        harness::inv_r_axis(harness::table2_inv_r()),
    };
    plan.grid_points = harness::expand(sweep).size();
  } else if (w == "replay-large") {
    plan.spec = base_spec(options.seed, sz.replay_s);
    plan.spec.p = 128;
    plan.spec.lambda = 4000.0;
  } else if (w == "faulted-stack") {
    plan.spec = base_spec(options.seed, sz.faulted_s);
    for (const Layer& layer : runtime_layers()) layer.enable(plan.spec);
  } else if (w == "observed") {
    plan.spec = base_spec(options.seed, sz.observed_s);
    obs::ObsConfig& o = plan.spec.obs;
    const std::string stem = options.out_dir + "/observed.";
    o.trace_path = stem + "trace.json";
    o.probe_interval_s = 0.1;
    o.probe_path = stem + "probes.csv";
    o.decision_log_path = stem + "decisions.csv";
    o.span_path = stem + "spans.json";
    plan.obs_files = {o.trace_path, o.probe_path, o.decision_log_path,
                      o.span_path};
  } else if (w == "chaos-batch") {
    plan.kind = Plan::Kind::kChaos;
    // The scenario mix is generator seeds 1..n for every --seed, which
    // only re-salts each run's seed (seed 1 is chaos_search's first batch).
    // A different mix per seed would swing the batch's cost by about 10%.
    const std::uint64_t salt = (options.seed - 1) * 1'000'003;
    for (int i = 1; i <= sz.chaos_schedules; ++i) {
      const Span gen("check.generate_schedule", i - 1);
      check::ChaosSchedule schedule = check::generate_schedule(
          static_cast<std::uint64_t>(i), check::ChaosGenConfig::full());
      schedule.seed += salt;
      plan.schedules.push_back(std::move(schedule));
    }
  } else {
    throw std::invalid_argument("unknown workload '" + w + "'");
  }
  return plan;
}

PassReport run_pass(const Plan& plan) {
  const std::string& dir = plan.options.out_dir;
  std::vector<core::ExperimentResult> results;   // experiment workloads
  std::vector<core::ExperimentSpec> specs;       // the spec behind each result
  std::vector<check::ChaosOutcome> outcomes;     // chaos-batch
  std::vector<harness::ResultRow> rows;
  std::vector<double> run_ms;
  std::vector<std::string> files;

  const double cpu0 = cpu_seconds();
  const std::int64_t wall0 = now_ns();
  {
    const Span pass("pass");
    switch (plan.kind) {
      case Plan::Kind::kSweep: {
        const std::size_t n = plan.grid_points * kRunsPerPoint;
        results.resize(n);
        specs.resize(n);
        run_ms.resize(n);
        // bench/fig4_optimizations' eval, keeping every result to check.
        const auto eval = [&](const harness::GridPoint& point) {
          core::ExperimentSpec spec = point.spec;
          std::size_t run = point.index * kRunsPerPoint;
          const auto replay = [&](core::SchedulerKind kind)
              -> const core::ExperimentResult& {
            spec.kind = kind;
            const Span span("core.run_experiment",
                            static_cast<std::int64_t>(run));
            const std::int64_t t0 = now_ns();
            results[run] = core::run_experiment(spec);
            run_ms[run] = 1e-6 * static_cast<double>(now_ns() - t0);
            specs[run] = spec;
            return results[run++];
          };
          RunningStats rep_ns, rep_nr, rep_m1, rep_stretch;
          int m_used = 0;
          for (int rep = 0; rep < kFig4Replications; ++rep) {
            spec.seed = point.spec.seed +
                        static_cast<std::uint64_t>(rep) * kFig4SeedStride;
            spec.m = 0;
            const core::ExperimentResult& ms = replay(core::SchedulerKind::kMs);
            m_used = ms.m_used;
            spec.m = ms.m_used;
            rep_ns.add(core::improvement(ms, replay(core::SchedulerKind::kMsNs)));
            rep_nr.add(core::improvement(ms, replay(core::SchedulerKind::kMsNr)));
            rep_m1.add(core::improvement(ms, replay(core::SchedulerKind::kMs1)));
            rep_stretch.add(ms.run.metrics.stretch);
          }
          const double offered =
              core::analytic_workload(point.spec).offered_load() / point.spec.p;
          harness::ResultRow row;
          row.set("offered_load", offered)
              .set("m", m_used)
              .set("stretch_ms", rep_stretch.mean())
              .set("imp_ns", rep_ns.mean())
              .set("imp_nr", rep_nr.mean())
              .set("imp_m1", rep_m1.mean())
              .set_bool("saturated", offered > 1.0);
          return row;
        };
        {
          const Span sweep("harness.run_sweep");
          SpanLog::instance().set_adopter(sweep.id());
          harness::SweepOptions sweep_options;
          sweep_options.jobs = plan.jobs;
          rows = harness::run_sweep(plan.sweep, sweep_options, eval).rows;
          SpanLog::instance().set_adopter(-1);
        }
        break;
      }
      case Plan::Kind::kSingle: {
        const Span span("core.run_experiment", 0);
        const std::int64_t t0 = now_ns();
        results.push_back(core::run_experiment(plan.spec));
        run_ms.push_back(1e-6 * static_cast<double>(now_ns() - t0));
        specs.push_back(plan.spec);
        rows.push_back(full_row(results.back()));
        files = plan.obs_files;
        break;
      }
      case Plan::Kind::kChaos: {
        for (std::size_t i = 0; i < plan.schedules.size(); ++i) {
          const Span span("check.run_schedule", static_cast<std::int64_t>(i));
          const std::int64_t t0 = now_ns();
          outcomes.push_back(check::run_schedule(plan.schedules[i]));
          run_ms.push_back(1e-6 * static_cast<double>(now_ns() - t0));
          // chaos_search's batch schema.
          const check::ChaosOutcome& o = outcomes.back();
          harness::ResultRow row;
          row.set("seed",
                  static_cast<unsigned long long>(plan.schedules[i].seed));
          row.set_bool("ok", o.ok());
          row.set("checked", static_cast<long long>(o.report.checked.size()));
          row.set("violations", join_violations(o.report));
          row.set("error", o.error);
          row.set("artifact_hash", hex(o.artifact_hash));
          rows.push_back(std::move(row));
        }
        break;
      }
    }
    for (const std::string& f : write_rows(dir, plan.options.workload, rows))
      files.push_back(f);
  }
  const double wall_s = 1e-9 * static_cast<double>(now_ns() - wall0);
  const double cpu_s = cpu_seconds() - cpu0;
  const double rss_mb = peak_rss_mb();

  // --- untimed: invariants, outcomes, hashes -----------------------------
  PassReport report;
  SimTotals sim;
  std::string digest;
  double artifact_bytes = 0.0;
  {
    const Span verify("verify");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Span span("check.invariants", static_cast<std::int64_t>(i));
      const check::InvariantReport inv =
          check::InvariantRegistry::builtin().check(specs[i], results[i]);
      if (!inv.ok())
        report.failures.push_back("run " + std::to_string(i) + ": " +
                                  inv.to_string());
      sim.add(results[i]);
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const check::ChaosOutcome& o = outcomes[i];
      if (!o.ok()) {
        report.failures.push_back(
            "schedule " + std::to_string(plan.schedules[i].seed) + ": " +
            (o.error.empty() ? join_violations(o.report) : o.error));
        continue;
      }
      sim.add(o.row.number("stretch"), o.row.number("p95_stretch"),
              o.row.number("goodput_rps"), o.row.number("submitted"),
              o.row.number("completed_total"));
    }
    {
      const Span span("check.row_hash");
      digest += "rows " + hex(check::fnv1a(harness::csv_string(rows))) + "\n";
    }
    for (const std::string& f : files) {
      const std::string bytes = read_file(f);
      artifact_bytes += static_cast<double>(bytes.size());
      digest += std::filesystem::path(f).filename().string() + " " +
                hex(check::fnv1a(bytes)) + "\n";
      std::filesystem::remove(f);
    }
  }
  report.result_hash = check::fnv1a(digest);

  // --- traced only: each run's public sub-steps, timed one by one --------
  double records = 0.0;
  if (SpanLog::instance().enabled()) {
    const Span decompose("decompose");
    const auto generate = [&](const core::ExperimentSpec& spec, std::int64_t i) {
      const Span span("trace.generate_trace", i);
      records += static_cast<double>(core::generate_trace(spec).size());
    };
    for (std::size_t i = 0; i < specs.size(); ++i)
      generate(specs[i], static_cast<std::int64_t>(i));
    // run_schedule hides its steps, so chaos-batch replays each schedule
    // step by step; this is also where its event count comes from.
    for (std::size_t i = 0; i < plan.schedules.size(); ++i) {
      const auto run = static_cast<std::int64_t>(i);
      core::ExperimentSpec spec;
      {
        const Span span("check.to_spec", run);
        spec = check::to_spec(plan.schedules[i]);
      }
      generate(spec, run);
      core::ExperimentResult result;
      {
        const Span span("core.run_experiment", run);
        result = core::run_experiment(spec);
      }
      sim.events += static_cast<double>(result.run.events);
      {
        const Span span("check.invariants", run);
        (void)check::InvariantRegistry::builtin().check(spec, result);
      }
      const Span span("check.row_hash", run);
      harness::ResultRow row;
      row.set("seed", static_cast<unsigned long long>(plan.schedules[i].seed));
      row.merge(full_row(result));
      (void)check::fnv1a(harness::csv_string({row}));
    }
  }

  const double runs = static_cast<double>(run_ms.size());
  const double n = std::max<double>(1.0, static_cast<double>(sim.runs));
  report.metrics = {
      {"wall_s", wall_s, "s"},
      {"cpu_s", cpu_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"threads", static_cast<double>(plan.jobs), "count"},
      {"runs", runs, "count"},
      {"failed_runs", static_cast<double>(report.failures.size()), "count"},
      {"requests", sim.submitted, "count"},
      {"requests_per_s", sim.submitted / wall_s, "req/s"},
      {"run_ms_p50", percentile(run_ms, 0.50), "ms"},
      {"run_ms_p90", percentile(run_ms, 0.90), "ms"},
      {"artifact_mb", artifact_bytes / 1e6, "MB"},
      {"sim_stretch", sim.stretch / n, "ratio"},
      {"sim_p95_stretch", sim.p95_stretch / n, "ratio"},
      {"sim_goodput_rps", sim.goodput_rps / n, "req/s"},
      {"sim_completed_frac",
       sim.submitted > 0.0 ? sim.completed / sim.submitted : 0.0, "ratio"},
  };
  if (sim.events > 0.0) report.metrics.push_back({"events", sim.events, "count"});
  if (records > 0.0) report.metrics.push_back({"records", records, "count"});
  return report;
}

}  // namespace wsched_perf
