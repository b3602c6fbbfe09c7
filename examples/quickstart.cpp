// Quickstart: size a master/slave Web cluster with the analytic model, then
// replay a synthetic CGI-heavy workload through the cluster simulator under
// the paper's M/S scheduler and the flat baseline, and compare stretch
// factors. The comparison runs as a two-point harness sweep (scheduler
// comparison axis), so the shared bench CLI works here too:
//
//   ./build/examples/quickstart [--jobs N] [--out PATH] [--list]
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "harness/bench_cli.hpp"
#include "model/optimize.hpp"

int main(int argc, char** argv) {
  using namespace wsched;
  const auto cli = harness::BenchCli::parse(argc, argv);

  // 1. Describe the workload analytically: 16 nodes, 600 req/s total,
  //    29% CGI (the KSU library profile), CGI ~40x as expensive as a file
  //    fetch on a node that serves 1200 static req/s.
  harness::SweepSpec sweep;
  sweep.base.profile = trace::ksu_profile();
  sweep.base.p = 16;
  sweep.base.lambda = 600;
  sweep.base.r = 1.0 / 40.0;
  sweep.base.duration_s = 8.0;
  sweep.base.warmup_s = 2.0;
  sweep.base.seed = 42;

  // 2. Replay through the OS-level cluster simulator: M/S vs flat, on the
  //    identical trace (the scheduler axis never reseeds).
  sweep.axes = {harness::scheduler_axis(
      {core::SchedulerKind::kMs, core::SchedulerKind::kFlat})};
  const auto run = harness::run_bench(sweep, cli, harness::experiment_row);
  if (!run) return 0;

  const model::Workload analytic = core::analytic_workload(sweep.base);
  std::printf("workload: p=%d lambda=%.0f a=%.3f r=1/%.0f rho=%.2f\n",
              analytic.p, analytic.lambda, analytic.a, 1.0 / analytic.r,
              analytic.rho());
  std::printf("offered load: %.1f of %d servers\n", analytic.offered_load(),
              analytic.p);

  // 3. Theorem 1: how many masters, and what fraction of CGI may they run?
  if (const auto plan = model::optimize_ms(analytic)) {
    std::printf("Theorem 1: m=%d masters, theta=%.3f, predicted SM=%.2f\n",
                plan->m, plan->theta, plan->stretch);
  }
  if (const auto flat = model::flat_stretch(analytic)) {
    std::printf("predicted flat stretch SF=%.2f\n", *flat);
  }

  std::printf("\nsimulated (trace-driven, OS-level):\n");
  double ms_stretch = 0.0, flat_stretch = 0.0;
  for (const harness::ResultRow& row : run->rows) {
    const bool is_ms = row.text("scheduler") == "M/S";
    (is_ms ? ms_stretch : flat_stretch) = row.number("stretch");
    std::printf("  %-6s m=%-3s stretch=%-8.2f static=%-8.2f dynamic=%.2f\n",
                row.text("scheduler").c_str(),
                is_ms ? row.text("m").c_str() : "",
                row.number("stretch"), row.number("stretch_static"),
                row.number("stretch_dynamic"));
    if (is_ms)
      std::printf(
          "         reservation end state: theta'2=%.3f a_hat=%.3f "
          "r_hat=%.4f\n",
          row.number("theta_limit"), row.number("a_hat"),
          row.number("r_hat"));
  }
  if (ms_stretch > 0.0)
    std::printf("  M/S improvement over flat: %.1f%%\n",
                (flat_stretch / ms_stretch - 1.0) * 100.0);
  return 0;
}
