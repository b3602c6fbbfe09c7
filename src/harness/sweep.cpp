#include "harness/sweep.hpp"

#include <stdexcept>
#include <variant>

#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace wsched::harness {

Axis profile_axis(const std::vector<trace::WorkloadProfile>& profiles) {
  return make_axis(
      "trace", profiles,
      [](const trace::WorkloadProfile& p) { return p.name; },
      [](core::ExperimentSpec& s, const trace::WorkloadProfile& p) {
        s.profile = p;
      });
}

Axis lambda_axis(const std::vector<double>& lambdas) {
  return make_axis(
      "lambda", lambdas, [](double l) { return fixed(l, 0); },
      [](core::ExperimentSpec& s, double l) { s.lambda = l; });
}

Axis inv_r_axis(const std::vector<double>& inv_rs) {
  return make_axis(
      "inv_r", inv_rs, [](double v) { return fixed(v, 0); },
      [](core::ExperimentSpec& s, double v) { s.r = 1.0 / v; });
}

Axis scheduler_axis(const std::vector<core::SchedulerKind>& kinds) {
  Axis axis = make_axis(
      "scheduler", kinds,
      [](core::SchedulerKind k) { return core::to_string(k); },
      [](core::ExperimentSpec& s, core::SchedulerKind k) { s.kind = k; });
  axis.reseed = false;
  return axis;
}

std::uint64_t point_seed(std::uint64_t base_seed, std::uint64_t reseed_index) {
  // SplitMix64's gamma is odd, so index -> state is injective mod 2^64 and
  // the finalizer is a bijection: distinct reseed indices can never yield
  // the same seed under one base.
  std::uint64_t state = base_seed + reseed_index * 0x9e3779b97f4a7c15ULL;
  return splitmix64(state);
}

std::vector<GridPoint> expand(const SweepSpec& spec) {
  std::size_t total = 1;
  for (const Axis& axis : spec.axes) {
    if (axis.values.empty())
      throw std::invalid_argument("sweep axis '" + axis.name +
                                  "' has no values");
    total *= axis.values.size();
  }

  std::vector<GridPoint> points;
  points.reserve(total);
  std::vector<std::size_t> at(spec.axes.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    GridPoint point;
    point.index = index;
    point.spec = spec.base;
    std::uint64_t reseed_index = 0;
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
      const Axis& axis = spec.axes[i];
      const AxisValue& value = axis.values[at[i]];
      if (value.apply) value.apply(point.spec);
      if (axis.reseed)
        reseed_index = reseed_index * axis.values.size() + at[i];
      if (!point.id.empty()) point.id += '/';
      point.id +=
          axis.name.empty() ? value.label : axis.name + '=' + value.label;
      if (value.coords.empty()) {
        point.coords.emplace_back(axis.name, value.label);
      } else {
        for (const auto& coord : value.coords) point.coords.push_back(coord);
      }
    }
    point.spec.seed = point_seed(spec.base.seed, reseed_index);
    points.push_back(std::move(point));

    // Row-major increment: last axis varies fastest.
    for (std::size_t i = spec.axes.size(); i-- > 0;) {
      if (++at[i] < spec.axes[i].values.size()) break;
      at[i] = 0;
    }
  }
  return points;
}

bool matches_filters(const std::string& id,
                     const std::vector<std::string>& filters) {
  if (filters.empty()) return true;
  for (const std::string& filter : filters)
    if (id.find(filter) != std::string::npos) return true;
  return false;
}

SweepRun run_sweep(const SweepSpec& spec, const SweepOptions& options,
                   const EvalFn& eval) {
  SweepRun run;
  for (GridPoint& point : expand(spec))
    if (matches_filters(point.id, options.filters))
      run.points.push_back(std::move(point));

  run.rows.resize(run.points.size());
  std::vector<std::string> errors(run.points.size());
  std::vector<char> failed(run.points.size(), 0);
  ThreadPool pool(options.jobs < 0 ? 1
                                   : static_cast<std::size_t>(options.jobs));
  parallel_for(pool, run.points.size(), [&](std::size_t i) {
    ResultRow row;
    row.set("point", static_cast<long long>(run.points[i].index));
    for (const auto& [name, label] : run.points[i].coords)
      row.set(name, label);
    if (options.quarantine) {
      try {
        row.merge(eval(run.points[i]));
      } catch (const std::exception& e) {
        failed[i] = 1;
        errors[i] = e.what();
        return;
      }
    } else {
      row.merge(eval(run.points[i]));
    }
    run.rows[i] = std::move(row);
  });
  pool.wait();
  if (options.quarantine) {
    // Compact the survivors in place, grid order preserved; failed points
    // move to the failures ledger.
    std::size_t out = 0;
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      if (failed[i]) {
        run.failures.push_back(
            {run.points[i].index, run.points[i].id, std::move(errors[i])});
        continue;
      }
      if (out != i) {
        run.points[out] = std::move(run.points[i]);
        run.rows[out] = std::move(run.rows[i]);
      }
      ++out;
    }
    run.points.resize(out);
    run.rows.resize(out);
  }
  return run;
}

ResultRow experiment_row(const GridPoint& point) {
  ResultRow row;
  const core::ExperimentResult result = core::run_experiment(point.spec);
  append_metrics(row, result);
  const model::Workload w = core::analytic_workload(point.spec);
  row.set("offered_load", w.offered_load() / point.spec.p);
  if (result.spans.enabled) append_span_metrics(row, result);
  return row;
}

void append_metric_group(ResultRow& row,
                         const core::ExperimentResult& result,
                         core::MetricGroup group) {
  for (const core::Metric& metric : core::metric_table()) {
    if (metric.group != group || metric.column == nullptr) continue;
    std::visit([&](const auto& value) { row.set(metric.column, value); },
               metric.source(result));
  }
}

void append_metrics(ResultRow& row, const core::ExperimentResult& result) {
  append_metric_group(row, result, core::MetricGroup::kCore);
}

void append_net_metrics(ResultRow& row, const core::ExperimentResult& result) {
  append_metric_group(row, result, core::MetricGroup::kLedger);
  append_metric_group(row, result, core::MetricGroup::kNet);
}

void append_ctrl_metrics(ResultRow& row,
                         const core::ExperimentResult& result) {
  append_metric_group(row, result, core::MetricGroup::kLedger);
  append_metric_group(row, result, core::MetricGroup::kCtrl);
}

void append_gray_metrics(ResultRow& row,
                         const core::ExperimentResult& result) {
  append_metric_group(row, result, core::MetricGroup::kLedger);
  append_metric_group(row, result, core::MetricGroup::kGray);
}

void append_span_metrics(ResultRow& row,
                        const core::ExperimentResult& result) {
  const obs::SpanSummary& s = result.spans;
  static const char* const kClassName[2] = {"static", "dynamic"};
  for (int c = 0; c < 2; ++c) {
    const obs::SpanClassSummary& cls = s.cls[c];
    const std::string prefix = std::string("span_") + kClassName[c] + "_";
    row.set(prefix + "n", static_cast<unsigned long long>(cls.count))
        .set(prefix + "sojourn_s", cls.mean_sojourn_s());
    for (std::size_t ph = 0; ph < obs::kSpanPhaseCount; ++ph) {
      const auto phase = static_cast<obs::SpanPhase>(ph);
      row.set(prefix + obs::to_string(phase) + "_s", cls.mean_phase_s(phase));
    }
  }
  row.set("span_closure_violations",
          static_cast<unsigned long long>(s.closure_violations));
}

ResultRow full_row(const core::ExperimentResult& result) {
  ResultRow row;
  append_metrics(row, result);
  append_net_metrics(row, result);
  append_ctrl_metrics(row, result);
  append_gray_metrics(row, result);
  append_span_metrics(row, result);
  return row;
}

}  // namespace wsched::harness
