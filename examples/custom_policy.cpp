// Extending the library with a custom dispatch policy.
//
// The core::Dispatcher interface is the library's extension point: anything
// that can map (request, cluster view) -> node can be evaluated against the
// paper's schedulers on identical traces. This example implements two
// classic alternatives and races them against the paper's M/S and the flat
// baseline on a CGI-heavy workload:
//
//   * RoundRobin  — next node in line, ignoring load entirely.
//   * PowerOfTwo  — sample two random nodes, send the request to the less
//                   loaded one (Mitzenmacher's power of two choices, which
//                   postdates the paper but is the canonical fix for
//                   stale-information herding).
//
// The race is a harness sweep: scenario axis x policy axis, the policy axis
// a comparison axis (reseed=false) so every policy replays the identical
// trace. Custom dispatchers ride ExperimentSpec::dispatcher_factory.
// Shared CLI: --jobs/--filter/--out/--list (e.g. --filter PowerOfTwo).
#include <cstdio>
#include <memory>

#include "core/rsrc.hpp"
#include "harness/bench_cli.hpp"
#include "util/table.hpp"

namespace {

using namespace wsched;

class RoundRobinDispatcher final : public core::Dispatcher {
 public:
  core::Decision route(const trace::TraceRecord&,
                       core::ClusterView& view) override {
    const int node = next_++ % view.p;
    return core::Decision{node, false, -1.0, node};
  }
  std::string name() const override { return "RoundRobin"; }

 private:
  int next_ = 0;
};

class PowerOfTwoDispatcher final : public core::Dispatcher {
 public:
  core::Decision route(const trace::TraceRecord& request,
                       core::ClusterView& view) override {
    const int a = static_cast<int>(view.rng->uniform_int(view.p));
    const int b = static_cast<int>(view.rng->uniform_int(view.p));
    const auto& load = view.load_seen_by(a);
    const double w = request.cpu_fraction;
    const int node = core::rsrc_cost(w, load[static_cast<std::size_t>(a)]) <=
                             core::rsrc_cost(w, load[static_cast<std::size_t>(b)])
                         ? a
                         : b;
    // The chosen node differs from the receiver half the time; dynamic
    // requests then pay the remote dispatch latency like any redirect.
    return core::Decision{node, node != a, w, a};
  }
  std::string name() const override { return "PowerOfTwo"; }
};

harness::Axis scenario_axis() {
  harness::Axis axis{"scenario", {}, true};
  // Moderate, smooth load: with homogeneous nodes and iid demands, dumb
  // round-robin is a formidable baseline — worth knowing before shipping a
  // clever dispatcher.
  axis.values.push_back({"smooth",
                         [](core::ExperimentSpec& s) {
                           s.profile = trace::ksu_profile();
                           s.lambda = 600;
                           s.r = 1.0 / 40.0;
                           s.bursty = false;
                         },
                         {}});
  // Hot, bursty, disk-heavy load: class separation and load awareness now
  // earn their keep; blind spreading mixes file fetches into CGI queues.
  axis.values.push_back({"bursty",
                         [](core::ExperimentSpec& s) {
                           s.profile = trace::adl_profile();
                           s.lambda = 500;
                           s.r = 1.0 / 80.0;
                           s.bursty = true;
                         },
                         {}});
  return axis;
}

harness::Axis policy_axis() {
  harness::Axis axis{"policy", {}, false};
  axis.values.push_back({"M/S", [](core::ExperimentSpec& s) {
                           s.kind = core::SchedulerKind::kMs;
                         },
                         {}});
  axis.values.push_back({"Flat", [](core::ExperimentSpec& s) {
                           s.kind = core::SchedulerKind::kFlat;
                         },
                         {}});
  axis.values.push_back({"RoundRobin",
                         [](core::ExperimentSpec& s) {
                           s.dispatcher_factory = [] {
                             return std::make_unique<RoundRobinDispatcher>();
                           };
                         },
                         {}});
  axis.values.push_back({"PowerOfTwo",
                         [](core::ExperimentSpec& s) {
                           s.dispatcher_factory = [] {
                             return std::make_unique<PowerOfTwoDispatcher>();
                           };
                         },
                         {}});
  return axis;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = harness::BenchCli::parse(argc, argv);

  harness::SweepSpec sweep;
  sweep.base.p = 16;
  sweep.base.duration_s = 10.0;
  sweep.base.warmup_s = 2.0;
  sweep.base.seed = 7;
  sweep.axes = {scenario_axis(), policy_axis()};

  const auto run = harness::run_bench(sweep, cli, harness::experiment_row);
  if (!run) return 0;

  // One table per scenario (the policy axis varies fastest).
  std::string current;
  Table table({"policy", "mean stretch"});
  const auto flush = [&] {
    if (!current.empty()) {
      std::fputs(table.str().c_str(), stdout);
      std::printf("\n");
      table = Table({"policy", "mean stretch"});
    }
  };
  for (std::size_t i = 0; i < run->rows.size(); ++i) {
    const harness::ResultRow& row = run->rows[i];
    const std::string scenario = row.text("scenario");
    if (scenario != current) {
      flush();
      current = scenario;
      const core::ExperimentSpec& spec = run->points[i].spec;
      std::printf("Scenario \"%s\": %s profile, lambda=%.0f, 1/r=%.0f%s, "
                  "%d nodes (m=%s)\n",
                  scenario.c_str(), spec.profile.name.c_str(), spec.lambda,
                  1.0 / spec.r, spec.bursty ? ", bursty arrivals" : "",
                  spec.p, row.text("m").c_str());
    }
    table.row().cell(row.text("scheduler")).cell(row.number("stretch"), 3);
  }
  flush();
  std::printf(
      "Lower is better; 1.0 means every request ran as if alone.\n");
  return 0;
}
