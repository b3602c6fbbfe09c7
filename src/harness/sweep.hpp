// Declarative experiment sweeps.
//
// A SweepSpec is a base core::ExperimentSpec plus named axes; expansion
// produces the row-major cross product of the axis values as GridPoints,
// each carrying a fully-configured spec and a seed derived from the point's
// position, and run_sweep() evaluates the points on a util::ThreadPool.
//
// Determinism contract: every evaluation is a pure function of its
// GridPoint (run_experiment is deterministic in the spec), results land in
// a vector indexed by point, and artifacts are emitted in point order after
// the pool drains — so a sweep run with jobs=N produces byte-identical
// CSV/JSON to jobs=1.
//
// Seeding contract: a point's seed mixes the base seed with the point's
// row-major index over the *reseeding* axes only (SplitMix64, a bijection,
// so distinct indices can never collide). Axes marked reseed=false — the
// comparison axes: scheduler variant, ablation knob, dispatcher — do not
// contribute, so the variants of one configuration run on the identical
// workload and their stretch ratios are paired, exactly like the paper's
// methodology of replaying one trace under every scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/metric_table.hpp"
#include "harness/artifacts.hpp"

namespace wsched::harness {

/// One labeled value of an axis: a mutation applied to the spec, plus the
/// coordinate columns it contributes to artifact rows (defaults to the
/// single (axis name, label) pair when empty).
struct AxisValue {
  std::string label;
  std::function<void(core::ExperimentSpec&)> apply;
  std::vector<std::pair<std::string, std::string>> coords;
};

struct Axis {
  std::string name;
  std::vector<AxisValue> values;
  /// Whether this axis contributes to per-point seed derivation. Leave
  /// true for workload axes; set false for comparison axes whose variants
  /// must see the identical workload.
  bool reseed = true;
};

/// Generic axis builder: label(v) names each value, apply(spec, v)
/// configures it.
template <typename T, typename LabelFn, typename ApplyFn>
Axis make_axis(std::string name, const std::vector<T>& values, LabelFn label,
               ApplyFn apply) {
  Axis axis{std::move(name), {}, true};
  axis.values.reserve(values.size());
  for (const T& v : values) {
    axis.values.push_back(
        {label(v), [apply, v](core::ExperimentSpec& s) { apply(s, v); }, {}});
  }
  return axis;
}

// Ready-made axes over the common ExperimentSpec fields.
Axis profile_axis(const std::vector<trace::WorkloadProfile>& profiles);
Axis lambda_axis(const std::vector<double>& lambdas);
/// Values are 1/r (the paper's sweep variable); sets spec.r = 1/value.
Axis inv_r_axis(const std::vector<double>& inv_rs);
/// Comparison axis (reseed=false).
Axis scheduler_axis(const std::vector<core::SchedulerKind>& kinds);

struct SweepSpec {
  /// Used to suffix artifact files when a binary runs several sweeps.
  std::string name;
  core::ExperimentSpec base;
  std::vector<Axis> axes;
};

/// One expanded grid point.
struct GridPoint {
  std::size_t index = 0;  ///< row-major position in the full grid
  /// Coordinate columns, in axis order (an axis may contribute several).
  std::vector<std::pair<std::string, std::string>> coords;
  /// "axis=label/axis=label/..." — what --filter matches and --list prints.
  std::string id;
  /// base spec + axis mutations + derived seed.
  core::ExperimentSpec spec;
};

/// Seed for reseed-subgrid position `reseed_index` under `base_seed`.
/// Injective in reseed_index (SplitMix64 finalizer over an odd-gamma walk).
std::uint64_t point_seed(std::uint64_t base_seed, std::uint64_t reseed_index);

/// Expands the row-major cross product of the spec's axes.
std::vector<GridPoint> expand(const SweepSpec& spec);

/// True when `id` matches any of the filters (substring, OR). An empty
/// filter list matches everything.
bool matches_filters(const std::string& id,
                     const std::vector<std::string>& filters);

struct SweepOptions {
  int jobs = 1;  ///< worker threads; 0 = hardware_concurrency
  std::vector<std::string> filters;
  /// Quarantine mode: a point whose evaluation throws (e.g. an
  /// EngineGuardError from a runaway configuration) is recorded in
  /// SweepRun::failures and excluded from the rows instead of aborting the
  /// whole sweep. Off by default: exceptions propagate.
  bool quarantine = false;
};

/// One evaluation failure captured under SweepOptions::quarantine.
struct SweepFailure {
  std::size_t index = 0;  ///< row-major grid index of the failed point
  std::string id;         ///< the point's axis=label/... identifier
  std::string error;      ///< exception message
};

struct SweepRun {
  std::vector<GridPoint> points;  ///< filtered, in grid order
  std::vector<ResultRow> rows;    ///< coordinates + evaluation, same order
  /// Quarantined points, in grid order (always empty unless
  /// SweepOptions::quarantine was set).
  std::vector<SweepFailure> failures;
};

using EvalFn = std::function<ResultRow(const GridPoint&)>;

/// Expands, filters, evaluates every point on a ThreadPool(jobs), and
/// returns rows in point order with the point coordinates prepended.
/// Evaluation exceptions propagate (the first one, via ThreadPool::wait)
/// unless options.quarantine diverts them into SweepRun::failures.
SweepRun run_sweep(const SweepSpec& spec, const SweepOptions& options,
                   const EvalFn& eval);

/// The standard evaluation: core::run_experiment on the point's spec,
/// reported with the stable MetricsSummary schema (stretch family,
/// response times, offered load, cache/fault counters, reservation end
/// state). Benches needing derived columns wrap it or roll their own.
ResultRow experiment_row(const GridPoint& point);

/// Appends the columns of one core/metric_table.hpp group, in table order.
void append_metric_group(ResultRow& row, const core::ExperimentResult& result,
                         core::MetricGroup group);

// Fixed group sequences. The extension groups stay out of append_metrics
// so the established sweep schema, and its byte-identity contract, never
// changes; net-, ctrl- and gray-aware benches call both. Each extension
// call also appends the submitted/completed_total ledger pair the
// accounting-closure check reads.

/// The core group: the stable metrics schema.
void append_metrics(ResultRow& row, const core::ExperimentResult& result);
/// The ledger pair, then the net-model group.
void append_net_metrics(ResultRow& row, const core::ExperimentResult& result);
/// The ledger pair, then the control-plane group.
void append_ctrl_metrics(ResultRow& row,
                         const core::ExperimentResult& result);
/// The ledger pair, then the gray-failure group.
void append_gray_metrics(ResultRow& row,
                         const core::ExperimentResult& result);

/// Appends the span latency decomposition: per-class terminated-request
/// counts, mean sojourn, mean seconds in each of the eight ledger phases
/// (span_<class>_<phase>_s) and the closure self-check. experiment_row
/// calls this only when the result carries spans, so the established
/// spans-off schema — and its byte-identity contract — never changes.
void append_span_metrics(ResultRow& row,
                        const core::ExperimentResult& result);

/// The full schema the chaos runner hashes: append_metrics, then the net,
/// ctrl, gray and span groups.
ResultRow full_row(const core::ExperimentResult& result);

}  // namespace wsched::harness
