// Ablation bench for the implementation mechanisms DESIGN.md §5 documents:
// the three pieces a working min-RSRC dispatcher needs that the paper does
// not spell out. Each variant removes or degrades one mechanism on the same
// workload (the variant axis is a comparison axis, reseed=false):
//
//   baseline        — per-receiver dispatch feedback, tapered admission,
//                     near-tie tolerance 0.3, 100 ms load sampling.
//   no-feedback     — receivers forget their own dispatches.
//   binary-gate     — threshold reservation gate (pulsed herding).
//   argmin          — tolerance 0 (exact minimum, shared-snapshot herding).
//   stale-500ms     — 500 ms load sampling period.
//   all-naive       — everything above at once: the paper's text read
//                     literally, no engineering in between.
//
// Shared harness CLI: --jobs/--filter/--out/--list (see harness/bench_cli).
#include <cstdio>

#include "harness/bench_cli.hpp"
#include "util/table.hpp"

namespace {

struct Variant {
  const char* name;
  bool feedback;
  bool binary_gate;
  double tolerance;
  double sample_period_s;
};

constexpr Variant kVariants[] = {
    {"baseline", true, false, 0.30, 0.1},
    {"no-feedback", false, false, 0.30, 0.1},
    {"binary-gate", true, true, 0.30, 0.1},
    {"argmin", true, false, 0.0, 0.1},
    {"stale-500ms", true, false, 0.30, 0.5},
    {"all-naive", false, true, 0.0, 0.5},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace wsched;
  const auto cli = harness::BenchCli::parse(argc, argv, {"lambda"});

  harness::SweepSpec sweep;
  sweep.base.profile = trace::ksu_profile();
  sweep.base.p = 16;
  sweep.base.lambda = cli.args.get_double("lambda", 600);
  sweep.base.r = 1.0 / 40.0;
  sweep.base.duration_s = cli.quick ? 6.0 : 12.0;
  sweep.base.warmup_s = 2.0;
  sweep.base.seed = 1999;
  sweep.base.kind = core::SchedulerKind::kMs;

  harness::Axis variants{"variant", {}, false};
  for (const Variant& v : kVariants) {
    variants.values.push_back(
        {v.name,
         [v](core::ExperimentSpec& s) {
           s.use_dispatch_feedback = v.feedback;
           s.binary_admission = v.binary_gate;
           s.rsrc_tolerance = v.tolerance;
           s.load_sample_period_s = v.sample_period_s;
         },
         {}});
  }
  sweep.axes = {variants};

  const auto run = harness::run_bench(sweep, cli, harness::experiment_row);
  if (!run) return 0;

  std::printf("Mechanism ablation: KSU profile, lambda=%.0f, p=%d (m=%s)\n\n",
              sweep.base.lambda, sweep.base.p,
              run->rows.empty() ? "?" : run->rows.front().text("m").c_str());

  Table table({"variant", "stretch", "static", "dynamic", "vs baseline"});
  double baseline_stretch = 0.0;
  for (const harness::ResultRow& row : run->rows) {
    const double stretch = row.number("stretch");
    if (baseline_stretch == 0.0) baseline_stretch = stretch;
    table.row()
        .cell(row.text("variant"))
        .cell(stretch, 3)
        .cell(row.number("stretch_static"), 3)
        .cell(row.number("stretch_dynamic"), 3)
        .cell_percent(stretch / baseline_stretch - 1.0);
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\n'vs baseline' is the stretch degradation each naivety costs.\n");
  return 0;
}
