#include "probes.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "core/load.hpp"
#include "core/rsrc.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace wsched_perf {

namespace {

using namespace wsched;

constexpr int kReps = 3;
// The layer matrix differences runs of about 0.2 s, so it takes more reps.
constexpr int kLayerReps = 5;
// Horizons of the two spec-level probes: long enough that a run takes
// about 0.1-0.3 s, short enough that every traced run can afford them.
constexpr double kLayerHorizonS = 60.0;
constexpr double kObsHorizonS = 20.0;

// Keeps the RSRC picks from being optimised away.
volatile std::size_t g_sink = 0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double seconds(F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

/// One million closures at scattered times through the event calendar.
double engine_ns_per_event(std::uint64_t seed) {
  constexpr std::uint64_t kEvents = 1'000'000;
  std::vector<double> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t state = seed;
    std::uint64_t x = splitmix64(state) | 1;
    std::uint64_t done = 0;
    const double s = seconds([&] {
      sim::Engine engine;
      for (std::uint64_t i = 0; i < kEvents; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        engine.schedule_at(static_cast<Time>(x % 1'000'000'000ull),
                           [&done] { ++done; });
      }
      engine.run();
    });
    if (done != kEvents) throw std::runtime_error("engine probe lost events");
    reps.push_back(1e9 * s / static_cast<double>(kEvents));
  }
  return median(reps);
}

/// 2048 jobs through one node's CPU/disk state machine.
double node_ns_per_job(std::uint64_t seed) {
  constexpr int kJobs = 2048;
  constexpr int kNodeReps = 15;
  Rng rng(seed);
  std::vector<sim::Job> jobs(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    sim::Job& job = jobs[static_cast<std::size_t>(i)];
    job.id = static_cast<std::uint64_t>(i);
    job.request.service_demand =
        static_cast<Time>(1 + rng.uniform_int(7)) * kMillisecond;
    job.request.cpu_fraction = 0.2 + 0.7 * rng.uniform();
    job.request.mem_pages = 16;
    job.request.cls = rng.uniform() < 0.3 ? trace::RequestClass::kDynamic
                                          : trace::RequestClass::kStatic;
  }
  const sim::OsParams os;  // the node keeps a reference to it
  std::vector<double> reps;
  for (int rep = 0; rep < kNodeReps; ++rep) {
    int done = 0;
    const double s = seconds([&] {
      sim::Engine engine;
      sim::Node node(engine, os, {}, 0);
      node.set_completion_callback([&done](const sim::Job&, Time) { ++done; });
      engine.schedule_at(0, [&] {
        for (const sim::Job& job : jobs) node.submit(job);
      });
      engine.run();
    });
    if (done != kJobs) throw std::runtime_error("node probe lost jobs");
    reps.push_back(1e9 * s / kJobs);
  }
  return median(reps);
}

/// Min-RSRC picks over p=32 and p=128 candidate lists, ns per pick averaged
/// over the two sizes.
double rsrc_pick_ns(std::uint64_t seed) {
  constexpr int kPicks = 200'000;
  double total = 0.0;
  std::size_t sink = 0;
  for (const std::size_t p : {std::size_t{32}, std::size_t{128}}) {
    core::LoadVec load(p);
    Rng fill(seed, p);
    for (std::size_t i = 0; i < p; ++i) {
      load[i].cpu_idle_ratio = 0.1 + 0.9 * fill.uniform();
      load[i].disk_avail_ratio = 0.1 + 0.9 * fill.uniform();
    }
    std::vector<int> candidates(p);
    for (std::size_t i = 0; i < p; ++i) candidates[i] = static_cast<int>(i);
    std::vector<double> reps;
    for (int rep = 0; rep < kReps; ++rep) {
      Rng rng(seed, 1000 + p);
      const double s = seconds([&] {
        for (int i = 0; i < kPicks; ++i)
          sink += core::pick_min_rsrc(0.7, candidates, load, rng);
      });
      reps.push_back(1e9 * s / kPicks);
    }
    total += median(reps);
  }
  g_sink = sink;
  return total / 2.0;
}

/// Theorem-1 master sizing of the paper-grid's grid points, microseconds per
/// call. In a paper-grid pass only the M/S runs call it; the ablations reuse
/// their master count.
double theorem1_us(const Options& options) {
  constexpr int kRounds = 200;
  Options grid = options;
  grid.workload = "paper-grid";
  std::vector<model::Workload> workloads;
  for (const harness::GridPoint& point : harness::expand(make_plan(grid).sweep))
    workloads.push_back(core::analytic_workload(point.spec));
  const double calls = static_cast<double>(kRounds * workloads.size());
  std::size_t sink = 0;
  std::vector<double> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    const double s = seconds([&] {
      for (int round = 0; round < kRounds; ++round)
        for (const model::Workload& w : workloads)
          sink += static_cast<std::size_t>(core::masters_from_theorem(w));
    });
    reps.push_back(1e6 * s / calls);
  }
  g_sink = sink;
  return median(reps);
}

/// Each runtime layer alone against the all-off spec, median of kLayerReps
/// interleaved repetitions. on_cost is the layer's extra wall time as a
/// share of the all-off replay (run_experiment minus trace generation).
void layer_matrix(std::uint64_t seed, std::vector<Metric>& out) {
  const core::ExperimentSpec base = base_spec(seed, kLayerHorizonS);
  std::vector<core::ExperimentSpec> specs = {base};
  for (const Layer& layer : runtime_layers()) {
    specs.push_back(base);
    layer.enable(specs.back());
  }
  std::vector<std::vector<double>> times(specs.size());
  std::vector<double> events(specs.size());
  std::vector<double> gen;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    gen.push_back(seconds([&] { (void)core::generate_trace(base); }));
    for (std::size_t c = 0; c < specs.size(); ++c) {
      core::ExperimentResult result;
      times[c].push_back(
          seconds([&] { result = core::run_experiment(specs[c]); }));
      events[c] = static_cast<double>(result.run.events);
    }
  }
  const double base_s = median(times[0]);
  const double replay_s = base_s - median(gen);
  for (std::size_t c = 1; c < specs.size(); ++c) {
    const std::string prefix = runtime_layers()[c - 1].prefix;
    out.push_back(
        {prefix + "on_cost", (median(times[c]) - base_s) / replay_s, "ratio"});
    out.push_back({prefix + "extra_events", events[c] - events[0], "count"});
  }
}

/// The observed workload's collectors, owned here so that each artifact
/// writer is a separate timed call.
void obs_breakdown(const Options& options, std::vector<Metric>& out) {
  const core::ExperimentSpec spec = base_spec(options.seed, kObsHorizonS);
  std::vector<double> bare, observed, trace_w, probe_w, decision_w, exemplar_w;
  double bytes = 0.0;
  const std::string stem = options.out_dir + "/probe.";
  for (int rep = 0; rep < kReps; ++rep) {
    bare.push_back(seconds([&] { (void)core::run_experiment(spec); }));

    obs::ChromeTraceSink trace;
    obs::CounterRegistry counters;
    obs::ProbeRecorder probes(from_seconds(0.1));
    obs::DecisionLog decisions;
    obs::SpanRecorder spans;
    core::ExperimentSpec s = spec;
    s.observer = {&trace, &counters, &decisions, &probes, &spans};
    core::ExperimentResult result;
    observed.push_back(seconds([&] { result = core::run_experiment(s); }));

    // run_experiment's own file path: counter totals ride the trace as
    // final samples (the snapshot must outlive the write).
    const auto totals = counters.snapshot();
    const Time end = from_seconds(result.run.sim_seconds);
    const std::vector<std::string> files = {
        stem + "trace.json", stem + "probes.csv", stem + "decisions.csv",
        stem + "spans.json"};
    trace_w.push_back(seconds([&] {
      for (const auto& [name, value] : totals)
        trace.counter(obs::Category::kProbe, name.c_str(), s.p, end,
                      static_cast<double>(value));
      trace.write_file(files[0]);
    }));
    probe_w.push_back(seconds([&] { probes.write_csv_file(files[1]); }));
    decision_w.push_back(seconds([&] { decisions.write_csv_file(files[2]); }));
    exemplar_w.push_back(
        seconds([&] { spans.write_exemplars_file(files[3], 3); }));
    bytes = 0.0;
    for (const std::string& f : files) {
      bytes += static_cast<double>(std::filesystem::file_size(f));
      std::filesystem::remove(f);
    }
  }
  out.push_back({"obs.record_s", median(observed) - median(bare), "s"});
  out.push_back({"obs.trace_write_s", median(trace_w), "s"});
  out.push_back({"obs.probe_write_s", median(probe_w), "s"});
  out.push_back({"obs.decision_write_s", median(decision_w), "s"});
  out.push_back({"obs.exemplar_write_s", median(exemplar_w), "s"});
  out.push_back({"obs.bytes_written", bytes, "bytes"});
}

}  // namespace

std::vector<Metric> run_probes(const Options& options) {
  std::vector<Metric> out = {
      {"sim.engine_ns_per_event", engine_ns_per_event(options.seed), "ns"},
      {"sim.node_ns_per_job", node_ns_per_job(options.seed), "ns"},
      {"core.rsrc_pick_ns", rsrc_pick_ns(options.seed), "ns"},
      {"model.theorem1_us", theorem1_us(options), "us"},
  };
  layer_matrix(options.seed, out);
  obs_breakdown(options, out);
  return out;
}

}  // namespace wsched_perf
