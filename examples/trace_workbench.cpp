// Trace generation / inspection workbench.
//
// Generates a synthetic workload for any of the paper's trace profiles,
// prints its Table-1-style characteristics, sketches the arrival and
// service-demand distributions, and optionally saves the trace as CSV for
// replay by other tools (or reloads and verifies a previously saved one).
//
// Generation runs as a harness sweep over the profile axis: `--profile all`
// inspects every Table 1 trace in one run (in parallel under --jobs), and
// --out writes the characteristics of each point as CSV/JSON artifacts.
//
// Usage:
//   trace_workbench --profile ksu|all --lambda 800 --duration 20 [--bursty]
//                   [--save /tmp/ksu.csv] [--load /tmp/ksu.csv]
#include <cstdio>
#include <exception>

#include "harness/bench_cli.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace wsched;

trace::GeneratorConfig generator_config(const core::ExperimentSpec& spec) {
  trace::GeneratorConfig config;
  config.profile = spec.profile;
  config.lambda = spec.lambda;
  config.duration_s = spec.duration_s;
  config.r = spec.r;
  config.mu_h = spec.mu_h;
  config.seed = spec.seed;
  config.bursty = spec.bursty;
  return config;
}

void print_trace_report(const trace::Trace& t) {
  const trace::TraceStats stats = trace::compute_stats(t);
  Table table({"metric", "value"});
  table.row().cell("requests").cell(static_cast<long long>(stats.requests));
  table.row().cell("dynamic fraction").cell_percent(stats.cgi_fraction);
  table.row().cell("arrival rate (req/s)").cell(stats.arrival_rate, 1);
  table.row().cell("a = lambda_c/lambda_h").cell(stats.a_ratio, 3);
  table.row().cell("mean HTML bytes").cell(stats.mean_html_bytes, 0);
  table.row().cell("mean CGI bytes").cell(stats.mean_cgi_bytes, 0);
  table.row().cell("mean static demand (ms)").cell(
      stats.mean_static_demand_s * 1e3, 3);
  table.row().cell("mean dynamic demand (ms)").cell(
      stats.mean_dynamic_demand_s * 1e3, 2);
  table.row().cell("r-hat (static/dynamic)").cell(stats.r_ratio, 4);
  table.row().cell("dynamic demand CV").cell(stats.dynamic_demand_cv, 2);
  std::fputs(table.str().c_str(), stdout);

  // Arrival burstiness sketch: requests per second.
  std::printf("\nArrivals per second:\n");
  Histogram arrivals(0, stats.span_s + 1, static_cast<std::size_t>(
                                              stats.span_s) + 1);
  for (const auto& rec : t.records) arrivals.add(to_seconds(rec.arrival));
  RunningStats per_second;
  for (std::size_t b = 0; b < arrivals.bins(); ++b)
    per_second.add(static_cast<double>(arrivals.bin_count(b)));
  std::printf("  mean %.1f, min %.0f, max %.0f, stddev %.1f\n",
              per_second.mean(), per_second.min(), per_second.max(),
              per_second.stddev());

  // Dynamic service demand histogram (log-ish buckets via ascii sketch).
  std::printf("\nDynamic service demand (ms):\n");
  Histogram demands(0, 4e3 * stats.mean_dynamic_demand_s, 20);
  for (const auto& rec : t.records)
    if (rec.is_dynamic()) demands.add(to_seconds(rec.service_demand) * 1e3);
  std::fputs(demands.ascii(48).c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = harness::BenchCli::parse(
      argc, argv,
      {"load", "profile", "lambda", "duration", "inv-r", "mu_h", "seed",
       "save"},
      {"bursty"});

  if (cli.args.has("load")) {
    const std::string path = cli.args.get("load", "");
    trace::Trace t;
    try {
      t = trace::load_trace_file(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace_workbench: %s: %s\n", path.c_str(),
                   e.what());
      return 1;
    }
    std::printf("Loaded %zu records from %s\n\n", t.size(), path.c_str());
    print_trace_report(t);
    return 0;
  }

  const std::string which = cli.args.get("profile", "ksu");
  const std::vector<trace::WorkloadProfile> profiles =
      which == "all"
          ? trace::table1_profiles()
          : std::vector<trace::WorkloadProfile>{trace::profile_by_name(which)};

  harness::SweepSpec sweep;
  sweep.base.lambda = cli.args.get_double("lambda", 800);
  sweep.base.duration_s = cli.args.get_double("duration", 20);
  sweep.base.r = 1.0 / cli.args.get_double("inv-r", 40);
  sweep.base.mu_h = cli.args.get_double("mu_h", 1200);
  sweep.base.seed = static_cast<std::uint64_t>(cli.args.get_int("seed", 1));
  sweep.base.bursty = cli.args.get_bool("bursty", false);
  sweep.axes = {harness::profile_axis(profiles)};

  const auto eval = [](const harness::GridPoint& point) {
    const trace::TraceStats stats = trace::compute_stats(
        trace::generate(generator_config(point.spec)));
    harness::ResultRow row;
    row.set("requests", static_cast<unsigned long long>(stats.requests))
        .set("cgi_fraction", stats.cgi_fraction)
        .set("arrival_rate", stats.arrival_rate)
        .set("a_ratio", stats.a_ratio)
        .set("mean_html_bytes", stats.mean_html_bytes)
        .set("mean_cgi_bytes", stats.mean_cgi_bytes)
        .set("mean_static_demand_s", stats.mean_static_demand_s)
        .set("mean_dynamic_demand_s", stats.mean_dynamic_demand_s)
        .set("r_ratio", stats.r_ratio)
        .set("dynamic_demand_cv", stats.dynamic_demand_cv);
    return row;
  };

  const auto run = harness::run_bench(sweep, cli, eval);
  if (!run) return 0;

  for (const harness::GridPoint& point : run->points) {
    // Regenerate for the detailed sketches — same spec, same trace.
    const trace::Trace t = trace::generate(generator_config(point.spec));
    std::printf("Generated %zu requests (%s profile, lambda=%.0f%s)\n\n",
                t.size(), point.spec.profile.name.c_str(), point.spec.lambda,
                point.spec.bursty ? ", bursty" : "");
    print_trace_report(t);
    std::printf("\n");
    if (cli.args.has("save")) {
      const std::string path = cli.args.get("save", "");
      const std::string target =
          run->points.size() == 1
              ? path
              : path + "." + point.spec.profile.name;
      trace::save_trace_file(target, t);
      std::printf("Saved to %s\n\n", target.c_str());
    }
  }
  return 0;
}
