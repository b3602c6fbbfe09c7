// Table 2 — "Workload parameters examined".
//
// Prints the experiment grid (arrival-rate ratio a from each trace, the
// lambda grids for the 32- and 128-node clusters, and the r sweep), plus
// the analytic offered load each combination implies, which is how the
// paper argues the settings create "reasonable loads" — neither too light
// nor too heavy. The offered-load table is a harness sweep with a pure
// analytic evaluation, so --jobs/--filter/--out/--list work as everywhere.
#include <cstdio>

#include "harness/bench_cli.hpp"
#include "harness/grids.hpp"
#include "model/queueing.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wsched;
  const auto cli = harness::BenchCli::parse(argc, argv);

  harness::SweepSpec sweep;
  sweep.axes = {harness::table2_cell_axis({32, 128}),
                harness::inv_r_axis(harness::table2_inv_r())};

  const auto eval = [](const harness::GridPoint& point) {
    const model::Workload w = core::analytic_workload(point.spec);
    harness::ResultRow row;
    row.set("a", w.a).set("offered_load", w.offered_load() / point.spec.p);
    return row;
  };

  const auto run = harness::run_bench(sweep, cli, eval);
  if (!run) return 0;

  std::printf("Table 2: workload parameters examined\n\n");
  Table table({"trace", "a (=lc/lh)", "lambda @ p=32", "lambda @ p=128",
               "1/r sweep"});
  for (const auto& grid : harness::table2_grid()) {
    const double frac = grid.profile.cgi_fraction;
    std::string l32, l128, rs;
    for (double l : grid.lambdas_p32)
      l32 += (l32.empty() ? "" : ", ") + fixed(l, 0);
    for (double l : grid.lambdas_p128)
      l128 += (l128.empty() ? "" : ", ") + fixed(l, 0);
    for (double r : harness::table2_inv_r())
      rs += (rs.empty() ? "" : ", ") + fixed(r, 0);
    table.row()
        .cell(grid.profile.name)
        .cell(frac / (1 - frac), 3)
        .cell(l32)
        .cell(l128)
        .cell(rs);
  }
  std::fputs(table.str().c_str(), stdout);

  std::printf("\nImplied offered load (fraction of cluster capacity):\n\n");
  std::vector<std::string> header = {"trace", "p", "lambda"};
  for (double inv_r : harness::table2_inv_r())
    header.push_back("1/r=" + fixed(inv_r, 0));
  Table loads(header);
  // The inv_r axis varies fastest, so each printed line is one run of rows
  // sharing the (p, trace, lambda) cell coordinates.
  std::string cell_key;
  for (const harness::ResultRow& row : run->rows) {
    const std::string key =
        row.text("p") + "/" + row.text("trace") + "/" + row.text("lambda");
    if (key != cell_key) {
      cell_key = key;
      loads.row()
          .cell(row.text("trace"))
          .cell(row.text("p"))
          .cell(row.text("lambda"));
    }
    loads.cell_percent(row.number("offered_load"));
  }
  std::fputs(loads.str().c_str(), stdout);
  std::printf(
      "\nLoads above 100%% are transient-overload points: the paper sweeps\n"
      "into saturation, which is exactly where reservation matters most.\n");
  return 0;
}
