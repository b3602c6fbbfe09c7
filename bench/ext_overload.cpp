// Extension bench: graceful degradation under overload. An arrival-rate
// ramp pushes the cluster from comfortable load to well past saturation,
// once with every overload control off (the paper's setting) and once with
// the full overload stack on — per-class deadlines with client
// abandonment, stretch-target admission (shed dynamic work to defend the
// static latency contract), client retries with exponential backoff,
// per-node circuit breakers, and the saturation detector that flips
// masters into degraded static-only mode.
//
// The claim under test: with the controls on, goodput (in-SLO completions
// per second) plateaus near capacity and the static p95 stretch stays
// bounded as lambda grows, while the uncontrolled runs pay an unbounded
// stretch blow-up past saturation. Both cells of each lambda replay the
// identical trace (the overload axis does not reseed).
//
// Shared harness CLI: --jobs/--filter/--out/--list plus the overload knobs
// (see harness/bench_cli.hpp); --lambda-max extends the ramp.
#include <cstdio>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "harness/bench_cli.hpp"
#include "util/table.hpp"

namespace {

using namespace wsched;

core::ExperimentSpec base_spec(const harness::BenchCli& cli) {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 8;
  spec.r = 1.0 / 40.0;
  spec.duration_s = cli.quick ? 8.0 : 20.0;
  spec.warmup_s = 2.0;
  spec.seed = 2040;
  spec.kind = core::SchedulerKind::kMs;
  // Runaway guard: a saturated uncontrolled run grows its queues without
  // bound; cap the event budget so the point quarantines instead of
  // spinning (the guard is generous — controlled runs stay far below it).
  spec.max_events = 60'000'000;
  return spec;
}

overload::OverloadConfig overload_on() {
  overload::OverloadConfig config;
  config.deadline.static_s = 1.0;
  config.deadline.dynamic_s = 2.0;
  config.admission.policy = overload::AdmissionPolicy::kStretchTarget;
  config.admission.stretch_target = 5.0;
  config.max_retries = 2;
  config.breaker.enabled = true;
  config.breaker.queue_trip = 64.0;
  config.saturation.enabled = true;
  config.saturation.enter_queue = 12.0;
  config.saturation.exit_queue = 4.0;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = harness::BenchCli::parse(argc, argv, {"lambda-max"});

  core::ExperimentSpec spec = base_spec(cli);
  const double lambda_max = cli.args.get_double("lambda-max", 1100.0);
  std::vector<double> lambdas;
  for (double l = 500.0; l <= lambda_max + 0.5; l += 150.0)
    lambdas.push_back(l);

  harness::SweepSpec ramp;
  ramp.name = "ramp";
  ramp.base = spec;
  harness::Axis overload_axis{"overload", {}, false};  // same trace per cell
  overload_axis.values = {
      {"off", {}, {}},
      {"on",
       [](core::ExperimentSpec& s) { s.overload = overload_on(); },
       {}},
  };
  ramp.axes = {harness::lambda_axis(lambdas), overload_axis};

  // ledger_row == experiment_row + the submitted/completed_total pair, so
  // every cell can assert ledger closure through the shared registry: shed
  // and abandoned requests must be accounted, never silently dropped.
  const auto run =
      harness::run_bench(ramp, cli, check::InvariantRegistry::ledger_row);
  if (!run) return 0;  // --list mode
  int failures = 0;

  std::printf(
      "Overload ramp: p=%d, KSU profile, M/S, %.0f s runs, lambda "
      "%.0f..%.0f req/s\n"
      "overload=on: deadlines 1 s static / 2 s dynamic, stretch-target "
      "admission,\n"
      "2 client retries, circuit breakers, degraded static-only mode\n\n",
      spec.p, spec.duration_s, lambdas.front(), lambdas.back());

  Table table({"lambda", "overload", "goodput", "slo", "p95 st-stretch",
               "stretch", "shed", "abandon", "degraded", "ledger"});
  for (const harness::ResultRow& row : run->rows) {
    const bool closed = check::InvariantRegistry::row_ledger_closed(row);
    if (!closed) ++failures;
    table.row()
        .cell(row.text("lambda"))
        .cell(row.text("overload"))
        .cell(row.number("goodput_rps"), 1)
        .cell_percent(row.number("slo_attainment"), 1)
        .cell(row.number("p95_stretch_static"), 2)
        .cell(row.number("stretch"), 2)
        .cell(row.text("shed"))
        .cell(row.text("abandoned"))
        .cell(row.text("degraded_entries"))
        .cell(closed ? "closed" : "LEAK");
  }
  std::fputs(table.str().c_str(), stdout);

  // Headline comparison at the hottest lambda both cells completed.
  const harness::ResultRow* off = nullptr;
  const harness::ResultRow* on = nullptr;
  for (auto it = run->rows.rbegin(); it != run->rows.rend(); ++it) {
    if (on == nullptr && it->text("overload") == "on") on = &*it;
    if (off == nullptr && it->text("overload") == "off" && on != nullptr &&
        it->text("lambda") == on->text("lambda"))
      off = &*it;
  }
  if (off != nullptr && on != nullptr) {
    std::printf(
        "\nAt lambda=%s: static p95 stretch %.2f (controlled) vs %.2f "
        "(uncontrolled),\ngoodput %.1f vs %.1f req/s\n",
        on->text("lambda").c_str(), on->number("p95_stretch_static"),
        off->number("p95_stretch_static"), on->number("goodput_rps"),
        off->number("goodput_rps"));
  }
  if (!run->failures.empty())
    std::printf("\n%zu uncontrolled point(s) hit the event guard and were "
                "quarantined — saturation without shedding is exactly the "
                "failure mode the overload layer removes.\n",
                run->failures.size());
  if (failures > 0)
    std::printf("\n%d ledger violation(s) — see rows above.\n", failures);
  return failures == 0 ? 0 : 1;
}
