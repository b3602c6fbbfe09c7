// Table 3 — "Performance improvement of M/S over other methods on a SUN
// cluster by actual running and simulation".
//
// The paper validated its simulator against a 6-node Sun Ultra-1 cluster
// (110 static req/s per node, r = 1/40, arrival rates 20/s and 40/s,
// masters = 3/1/1 for UCB/KSU/ADL). We substitute the hardware with the
// thread-per-node real-execution testbed (see src/testbed) and run the
// *same trace* through the discrete-event simulator configured identically;
// the comparison is between improvement ratios (M/S over each variant),
// which is exactly what Table 3 tabulates. Paper: simulated and actual
// ratios agree within a few percent, simulation slightly optimistic.
//
// Host scaling: the CPU duty cycle is reduced so a single-core host can
// honestly emulate six nodes at the paper's full 20/40 req/s — see
// TestbedConfig::cpu_duty_cycle (the duty keeps aggregate host CPU well
// under one core while all timing stays wall-clock real). Time compression
// shortens wall time without changing any ratio. On very weak hosts,
// --rate-scale N additionally divides the arrival rates.
//
// Shared harness CLI: --jobs/--filter/--out/--list. Because the testbed
// measures wall-clock execution, --jobs defaults to 1 here (grid points
// run in parallel would contend for the host CPU and distort the "Actual"
// column); --filter rate=20 splits the sweep across wall-clock budgets.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "harness/bench_cli.hpp"
#include "testbed/testbed.hpp"
#include "trace/generator.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace wsched;

double run_sim(const trace::Trace& trace, core::SchedulerKind kind, int m,
               double r, double mu_h, double warmup_s,
               std::uint64_t seed) {
  core::ClusterConfig config;
  config.p = 6;
  config.m = m;
  config.seed = seed;
  config.warmup = from_seconds(warmup_s);
  config.reservation.initial_r = r;
  config.reservation.initial_a = 0.4;
  config.initial_dynamic_demand_s = 1.0 / (r * mu_h);
  core::ClusterSim cluster(config, core::make_dispatcher(kind, m));
  return cluster.run(trace).metrics.stretch;
}

}  // namespace

int main(int argc, char** argv) {
  auto cli = harness::BenchCli::parse(
      argc, argv, {"rate-scale", "duration", "reps", "compression", "duty",
                   "seed"});
  if (!cli.args.has("jobs")) cli.options.jobs = 1;  // wall-clock-sensitive
  const bool quick = cli.quick;
  const double rate_scale = cli.args.get_double("rate-scale", 1.0);
  const double duration =
      cli.args.get_double("duration", quick ? 15.0 : 24.0);
  // Median over replications: a single real-execution run can absorb a
  // host-level hiccup that inflates its stretch by tens of percent.
  const int reps = static_cast<int>(cli.args.get_int("reps", 3));
  const double compression = cli.args.get_double("compression", 2.0);
  const double duty = cli.args.get_double("duty", 0.125);
  const double mu_h = 110.0;  // Sun Ultra 1, SPECweb96 (paper §5.2.2)
  const double r = 1.0 / 40.0;

  const std::map<std::string, int> masters = {
      {"UCB", 3}, {"KSU", 1}, {"ADL", 1}};  // paper's choices

  std::vector<double> rates = {20.0, 40.0};
  if (quick) rates = {20.0};

  harness::SweepSpec sweep;
  sweep.base.mu_h = mu_h;
  sweep.base.r = r;
  sweep.base.duration_s = duration;
  sweep.base.seed =
      static_cast<std::uint64_t>(cli.args.get_int("seed", 1999));
  sweep.axes = {
      harness::profile_axis(trace::experiment_profiles()),
      harness::make_axis(
          "rate", rates, [](double v) { return fixed(v, 0); },
          [rate_scale](core::ExperimentSpec& s, double v) {
            s.lambda = v / rate_scale;
          }),
  };

  const auto eval = [&](const harness::GridPoint& point) {
    const trace::WorkloadProfile& profile = point.spec.profile;
    trace::GeneratorConfig gen;
    gen.profile = profile;
    gen.lambda = point.spec.lambda;
    gen.duration_s = point.spec.duration_s;
    gen.mu_h = mu_h;
    gen.r = r;
    gen.seed = point.spec.seed;
    const trace::Trace trace_data = trace::generate(gen);
    const int m = masters.at(profile.name);

    testbed::TestbedConfig tb;
    tb.p = 6;
    tb.m = m;
    tb.time_compression = compression;
    tb.cpu_duty_cycle = duty;
    tb.initial_r = r;
    tb.initial_a = profile.cgi_fraction / (1 - profile.cgi_fraction);

    const auto variants = {core::SchedulerKind::kMs,
                           core::SchedulerKind::kMs1,
                           core::SchedulerKind::kMsNs,
                           core::SchedulerKind::kMsNr};
    std::map<core::SchedulerKind, double> actual, simulated;
    for (const auto kind : variants) {
      std::vector<double> stretches;
      for (int rep = 0; rep < reps; ++rep) {
        tb.seed = point.spec.seed + static_cast<std::uint64_t>(rep) * 101;
        stretches.push_back(
            testbed::run_testbed(tb, kind, trace_data).metrics.stretch);
      }
      std::sort(stretches.begin(), stretches.end());
      actual[kind] = stretches[stretches.size() / 2];
      simulated[kind] = run_sim(trace_data, kind, m, r, mu_h,
                                0.1 * duration, point.spec.seed);
    }

    const auto improvement = [](double variant, double ms) {
      return ms > 0 ? variant / ms - 1.0 : 0.0;
    };
    const double ms_act = actual[core::SchedulerKind::kMs];
    const double ms_sim = simulated[core::SchedulerKind::kMs];
    harness::ResultRow row;
    row.set("m", m)
        .set("imp_m1_actual",
             improvement(actual[core::SchedulerKind::kMs1], ms_act))
        .set("imp_m1_sim",
             improvement(simulated[core::SchedulerKind::kMs1], ms_sim))
        .set("imp_ns_actual",
             improvement(actual[core::SchedulerKind::kMsNs], ms_act))
        .set("imp_ns_sim",
             improvement(simulated[core::SchedulerKind::kMsNs], ms_sim))
        .set("imp_nr_actual",
             improvement(actual[core::SchedulerKind::kMsNr], ms_act))
        .set("imp_nr_sim",
             improvement(simulated[core::SchedulerKind::kMsNr], ms_sim));
    return row;
  };

  const auto run = harness::run_bench(sweep, cli, eval);
  if (!run) return 0;

  std::printf("Table 3: M/S improvement over other methods — real execution "
              "(testbed) vs simulation\n");
  std::printf("6 nodes, mu_h=%.0f, r=1/40, rates %.1f/%.1f req/s "
              "(paper's 20/40 scaled by 1/%.0f for the host), "
              "compression %.0fx, duty %.3f\n\n",
              mu_h, rates.front() / rate_scale, rates.back() / rate_scale,
              rate_scale, compression, duty);

  Table table({"trace, rate", "M/S vs M/S-1", "", "M/S vs M/S-ns", "",
               "M/S vs M/S-nr", ""});
  table.row().cell("").cell("Actual").cell("Simu").cell("Actual").cell(
      "Simu").cell("Actual").cell("Simu");

  RunningStats differences;
  for (const harness::ResultRow& row : run->rows) {
    table.row().cell(row.text("trace") + ", " + row.text("rate") + "/s");
    for (const char* variant : {"m1", "ns", "nr"}) {
      const double act =
          row.number(std::string("imp_") + variant + "_actual");
      const double sim = row.number(std::string("imp_") + variant + "_sim");
      differences.add(std::abs(act - sim));
      table.cell_percent(act).cell_percent(sim);
    }
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\nMean |Actual - Simu| difference: %s "
              "(paper: ~3%%, simulation slightly optimistic)\n",
              percent(differences.mean()).c_str());
  return 0;
}
