#include "check/invariants.hpp"

#include <cmath>
#include <sstream>

namespace wsched::check {

namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

std::string fp(double v) {
  std::ostringstream out;
  out.precision(9);
  out << v;
  return out.str();
}

void violate(std::vector<Violation>& out, const char* name,
             std::string detail) {
  out.push_back(Violation{name, std::move(detail)});
}

// --- checkers ----------------------------------------------------------

using core::ExperimentResult;
using core::ExperimentSpec;
using core::RunResult;

void check_ledger(const ExperimentSpec&, const ExperimentResult& res,
                  const char* name, std::vector<Violation>& out) {
  const RunResult& r = res.run;
  const std::uint64_t accounted =
      r.completed + r.timeouts + r.shed + r.abandoned;
  if (accounted != r.submitted)
    violate(out, name,
            "completed " + u64(r.completed) + " + timeouts " +
                u64(r.timeouts) + " + shed " + u64(r.shed) + " + abandoned " +
                u64(r.abandoned) + " = " + u64(accounted) +
                " != submitted " + u64(r.submitted));
}

void check_split_brain(const ExperimentSpec&, const ExperimentResult& res,
                       const char* name, std::vector<Violation>& out) {
  if (res.run.net_split_brain_rounds > 0)
    violate(out, name,
            u64(res.run.net_split_brain_rounds) +
                " membership rounds saw more than m master claimants");
}

void check_powered_floor(const ExperimentSpec& spec,
                         const ExperimentResult& res, const char* name,
                         std::vector<Violation>& out) {
  const RunResult& r = res.run;
  if (spec.ctrl.enabled && spec.ctrl.autoscale) {
    if (r.powered_min < spec.ctrl.min_powered)
      violate(out, name,
              "powered count dropped to " + u64(r.powered_min) +
                  " below min_powered " + u64(spec.ctrl.min_powered));
  } else if (r.powered_min != spec.p) {
    violate(out, name,
            "powered count dropped to " + u64(r.powered_min) + " of " +
                u64(spec.p) + " without autoscaling");
  }
}

void check_span_closure(const ExperimentSpec&, const ExperimentResult& res,
                        const char* name, std::vector<Violation>& out) {
  if (res.spans.closure_violations > 0)
    violate(out, name,
            u64(res.spans.closure_violations) +
                " requests whose phase ledger does not telescope to the "
                "sojourn");
}

void check_theta(const ExperimentSpec& spec, const ExperimentResult& res,
                 const char* name, std::vector<Violation>& out) {
  const double theta = res.run.theta_limit;
  if (!(theta >= 0.0) || theta > 1.0 + 1e-9) {
    violate(out, name, "theta'_2 = " + fp(theta) + " outside [0, 1]");
    return;
  }
  // The tight (p, m) bound theta'_2 <= m/p only holds while the membership
  // stays (p, m): failover shrinks p, autoscaling varies it, retargeting
  // varies m — all of which legitimately raise m/p_current.
  const bool membership_fixed =
      !spec.fault.enabled &&
      !(spec.ctrl.enabled &&
        (spec.ctrl.autoscale || spec.ctrl.retarget_masters));
  if (membership_fixed && res.m_used > 0 && spec.p > 0 &&
      theta > static_cast<double>(res.m_used) / spec.p + 1e-9)
    violate(out, name,
            "theta'_2 = " + fp(theta) + " exceeds m/p = " +
                fp(static_cast<double>(res.m_used) / spec.p) + " (m=" +
                u64(res.m_used) + ", p=" + u64(spec.p) + ")");
}

void check_monotone_time(const ExperimentSpec& spec,
                         const ExperimentResult& res, const char* name,
                         std::vector<Violation>& out) {
  const RunResult& r = res.run;
  if (r.sim_seconds < 0.0)
    violate(out, name, "sim_seconds = " + fp(r.sim_seconds) + " < 0");
  if (r.submitted > 0 && r.sim_seconds <= 0.0)
    violate(out, name,
            u64(r.submitted) + " requests submitted in zero simulated time");
  const auto nonneg = [&](const char* field, double v) {
    if (v < 0.0) violate(out, name, std::string(field) + " = " + fp(v) + " < 0");
  };
  nonneg("mean_response_s", r.metrics.mean_response_s);
  nonneg("stretch", r.metrics.stretch);
  nonneg("goodput_rps", r.goodput_rps);
  nonneg("degraded_seconds", r.degraded_seconds);
  nonneg("degraded_node_s", r.degraded_node_s);
  const auto ordered = [&](const char* what, double p50, double p95,
                           double p99) {
    if (p50 > p95 + 1e-12 || p95 > p99 + 1e-12)
      violate(out, name,
              std::string(what) + " percentiles out of order: p50 " +
                  fp(p50) + ", p95 " + fp(p95) + ", p99 " + fp(p99));
  };
  ordered("response", r.metrics.p50_response_s, r.metrics.p95_response_s,
          r.metrics.p99_response_s);
  if (r.availability < 0.0 || r.availability > 1.0 + 1e-9)
    violate(out, name,
            "availability = " + fp(r.availability) + " outside [0, 1]");
  if (r.mean_cpu_utilization < 0.0 || r.mean_cpu_utilization > 1.0 + 1e-9)
    violate(out, name,
            "mean_cpu_utilization = " + fp(r.mean_cpu_utilization) +
                " outside [0, 1]");
  if (r.mean_disk_utilization < 0.0 || r.mean_disk_utilization > 1.0 + 1e-9)
    violate(out, name,
            "mean_disk_utilization = " + fp(r.mean_disk_utilization) +
                " outside [0, 1]");
  (void)spec;
}

void check_hedge(const ExperimentSpec& spec, const ExperimentResult& res,
                 const char* name, std::vector<Violation>& out) {
  const RunResult& r = res.run;
  if (!spec.hedge.enabled) {
    if (r.hedges_launched != 0 || r.hedge_wins != 0 ||
        r.hedge_cancellations != 0 || r.hedges_skipped != 0)
      violate(out, name, "hedge counters nonzero with hedging disabled");
    return;
  }
  // Settled-claim accounting: each launched hedge race settles exactly
  // once, so there is at most one cancellation (and at most one win) per
  // launch — a double cancel or a win without a launch is a leak.
  if (r.hedge_cancellations > r.hedges_launched)
    violate(out, name,
            u64(r.hedge_cancellations) + " cancellations exceed " +
                u64(r.hedges_launched) + " launches");
  if (r.hedge_wins > r.hedges_launched)
    violate(out, name,
            u64(r.hedge_wins) + " hedge wins exceed " +
                u64(r.hedges_launched) + " launches");
  if (r.hedge_wins + r.hedge_cancellations > 2 * r.hedges_launched)
    violate(out, name, "hedge race settled more than once per launch");
}

void check_energy(const ExperimentSpec& spec, const ExperimentResult& res,
                  const char* name, std::vector<Violation>& out) {
  const RunResult& r = res.run;
  const double full = static_cast<double>(spec.p) * r.sim_seconds;
  const double tol = 1e-6 * std::max(1.0, full);
  if (spec.ctrl.enabled && spec.ctrl.autoscale) {
    const double floor_e =
        static_cast<double>(r.powered_min) * r.sim_seconds;
    if (r.energy_node_s > full + tol || r.energy_node_s < floor_e - tol)
      violate(out, name,
              "energy " + fp(r.energy_node_s) + " node-s outside [" +
                  fp(floor_e) + ", " + fp(full) + "]");
  } else if (std::abs(r.energy_node_s - full) > tol) {
    violate(out, name,
            "energy " + fp(r.energy_node_s) + " node-s != p * sim_seconds = " +
                fp(full));
  }
}

}  // namespace

struct InvariantRegistry::Checker {
  const char* name;
  /// Whether the checker applies to this spec at all.
  bool (*applies)(const ExperimentSpec&);
  void (*fn)(const ExperimentSpec&, const ExperimentResult&, const char*,
             std::vector<Violation>&);
};

InvariantRegistry::InvariantRegistry() {
  const auto always = [](const ExperimentSpec&) { return true; };
  checkers_ = {
      {"ledger-closure", always, check_ledger},
      {"no-split-brain",
       [](const ExperimentSpec& s) {
         // Split-brain rounds are only counted when membership runs over
         // the net model with the fault layer live; note the check does
         // NOT require quorum — disabling quorum is precisely the bug
         // this invariant catches.
         return s.net.enabled && s.fault.enabled;
       },
       check_split_brain},
      {"powered-floor", always, check_powered_floor},
      {"span-closure",
       [](const ExperimentSpec& s) { return s.obs.spans; },
       check_span_closure},
      {"theta-feasible",
       [](const ExperimentSpec& s) {
         return s.kind == core::SchedulerKind::kMs;
       },
       check_theta},
      {"monotone-time", always, check_monotone_time},
      {"hedge-accounting", always, check_hedge},
      {"energy-accounting", always, check_energy},
  };
}

const InvariantRegistry& InvariantRegistry::builtin() {
  static const InvariantRegistry registry;
  return registry;
}

std::vector<std::string> InvariantRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(checkers_.size());
  for (const Checker& c : checkers_) out.emplace_back(c.name);
  return out;
}

InvariantReport InvariantRegistry::check(
    const core::ExperimentSpec& spec,
    const core::ExperimentResult& result) const {
  InvariantReport report;
  for (const Checker& c : checkers_) {
    if (!c.applies(spec)) continue;
    report.checked.emplace_back(c.name);
    c.fn(spec, result, c.name, report.violations);
  }
  return report;
}

std::string InvariantReport::to_string() const {
  if (ok())
    return "ok (" + std::to_string(checked.size()) + " invariants)";
  std::string out;
  for (const Violation& v : violations) {
    if (!out.empty()) out += "\n";
    out += v.invariant + ": " + v.detail;
  }
  return out;
}

bool InvariantRegistry::row_ledger_closed(const harness::ResultRow& row) {
  if (!row.has("submitted")) return true;
  const auto count = [&](const char* field) -> long long {
    return row.has(field) ? std::llround(row.number(field)) : 0;
  };
  const long long completed = row.has("completed_total")
                                  ? count("completed_total")
                                  : count("completed");
  return completed + count("timeouts") + count("shed") +
             count("abandoned") ==
         std::llround(row.number("submitted"));
}

harness::ResultRow InvariantRegistry::ledger_row(
    const harness::GridPoint& point) {
  harness::ResultRow row;
  const core::ExperimentResult result = core::run_experiment(point.spec);
  harness::append_metrics(row, result);
  const model::Workload w = core::analytic_workload(point.spec);
  row.set("offered_load", w.offered_load() / point.spec.p);
  harness::append_metric_group(row, result, core::MetricGroup::kLedger);
  if (result.spans.enabled) harness::append_span_metrics(row, result);
  return row;
}

std::uint64_t InvariantRegistry::row_split_brain_rounds(
    const harness::ResultRow& row) {
  if (!row.has("net_split_brain_rounds")) return 0;
  const long long rounds = std::llround(row.number("net_split_brain_rounds"));
  return rounds <= 0 ? 0 : static_cast<std::uint64_t>(rounds);
}

}  // namespace wsched::check
