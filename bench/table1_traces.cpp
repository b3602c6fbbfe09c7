// Table 1 — "Characteristics of four Web traces".
//
// Generates the four synthetic traces at their native arrival rates and
// prints the same columns the paper reports, next to the paper's reference
// values. Because the generators are calibrated to those marginals, the
// measured columns should reproduce the reference ones up to sampling
// noise (the request counts are scaled down: replaying 24.5M DEC requests
// verbatim would add nothing statistically).
//
// Shared harness CLI: --jobs/--filter/--out/--list (see harness/bench_cli).
#include <cstdio>

#include "harness/bench_cli.hpp"
#include "trace/generator.hpp"
#include "trace/trace_stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wsched;
  const auto cli = harness::BenchCli::parse(argc, argv, {"requests", "seed"});
  const auto requests = static_cast<std::size_t>(
      cli.args.get_int("requests", cli.quick ? 20000 : 120000));

  harness::SweepSpec sweep;
  sweep.base.seed =
      static_cast<std::uint64_t>(cli.args.get_int("seed", 1999));
  sweep.axes = {harness::profile_axis(trace::table1_profiles())};

  const auto eval = [requests](const harness::GridPoint& point) {
    const trace::WorkloadProfile& profile = point.spec.profile;
    trace::GeneratorConfig config;
    config.profile = profile;
    // Generate at the native rate for long enough to cover `requests`.
    config.lambda = 1.0 / profile.native_interval_s;
    config.duration_s =
        profile.native_interval_s * static_cast<double>(requests);
    config.seed = point.spec.seed;
    const trace::TraceStats stats =
        trace::compute_stats(trace::generate(config));
    harness::ResultRow row;
    row.set("year", profile.year)
        .set("requests", static_cast<unsigned long long>(stats.requests))
        .set("cgi_fraction", stats.cgi_fraction)
        .set("ref_cgi_fraction", profile.cgi_fraction)
        .set("mean_interval_s", stats.mean_interval_s)
        .set("ref_interval_s", profile.native_interval_s)
        .set("mean_html_bytes", stats.mean_html_bytes)
        .set("ref_html_bytes", profile.html_mean_bytes)
        .set("mean_cgi_bytes", stats.mean_cgi_bytes)
        .set("ref_cgi_bytes", profile.cgi_mean_bytes);
    return row;
  };

  const auto run = harness::run_bench(sweep, cli, eval);
  if (!run) return 0;

  std::printf("Table 1: characteristics of the four (synthetic) Web traces\n");
  std::printf("Reference values from the paper in parentheses.\n\n");
  Table table({"Web site", "year", "requests", "% CGI (ref)",
               "interval s (ref)", "HTML bytes (ref)", "CGI bytes (ref)"});
  for (const harness::ResultRow& row : run->rows) {
    table.row()
        .cell(row.text("trace"))
        .cell(row.text("year"))
        .cell(row.text("requests"))
        .cell(percent(row.number("cgi_fraction")) + " (" +
              percent(row.number("ref_cgi_fraction")) + ")")
        .cell(fixed(row.number("mean_interval_s"), 3) + " (" +
              fixed(row.number("ref_interval_s"), 3) + ")")
        .cell(fixed(row.number("mean_html_bytes"), 0) + " (" +
              fixed(row.number("ref_html_bytes"), 0) + ")")
        .cell(fixed(row.number("mean_cgi_bytes"), 0) + " (" +
              fixed(row.number("ref_cgi_bytes"), 0) + ")");
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nNote: HTML sizes are post-substitution (closest SPECweb96 file),\n"
      "so they track the reference means rather than matching exactly —\n"
      "the same effect the paper's replay methodology has.\n");
  return 0;
}
