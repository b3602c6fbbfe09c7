// Microbenchmarks (google-benchmark) for the infrastructure hot paths:
// event engine throughput, node-level scheduling, RSRC selection, trace
// generation and the analytic optimizer. These guard the simulator's
// performance envelope — the fig4 grid dispatches hundreds of millions of
// events, so regressions here directly inflate experiment wall time.
//
// These are for local profiling. The end-to-end and per-layer numbers a
// perf change is judged by come from the benchmark under perf/ (see
// perf/README.md): its probes time the same engine, node and RSRC paths.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/experiment.hpp"
#include "core/rsrc.hpp"
#include "model/optimize.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "trace/generator.hpp"
#include "trace/profile.hpp"
#include "util/rng.hpp"

namespace {

using namespace wsched;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i)
      engine.schedule_at(static_cast<Time>(i % 97), [&sink] { ++sink; });
    engine.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1 << 10)->Arg(1 << 14);

void BM_NodeThroughput(benchmark::State& state) {
  // Jobs through a single node: measures the full CPU/disk state machine.
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    sim::OsParams os;
    sim::Node node(engine, os, {}, 0);
    int done = 0;
    node.set_completion_callback(
        [&done](const sim::Job&, Time) { ++done; });
    engine.schedule_at(0, [&] {
      for (int i = 0; i < jobs; ++i) {
        sim::Job job;
        job.id = static_cast<std::uint64_t>(i);
        job.request.service_demand = (1 + i % 7) * kMillisecond;
        job.request.cpu_fraction = (i % 2) ? 0.9 : 0.3;
        job.request.mem_pages = 16;
        job.request.cls = (i % 3 == 0) ? trace::RequestClass::kDynamic
                                       : trace::RequestClass::kStatic;
        node.submit(job);
      }
    });
    engine.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NodeThroughput)->Arg(256)->Arg(2048);

void BM_RsrcPick(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  core::LoadVec load(p);
  Rng fill(5);
  for (std::size_t i = 0; i < p; ++i) {
    load[i].cpu_idle_ratio = 0.1 + 0.9 * fill.uniform();
    load[i].disk_avail_ratio = 0.1 + 0.9 * fill.uniform();
  }
  std::vector<int> candidates(p);
  for (std::size_t i = 0; i < p; ++i) candidates[i] = static_cast<int>(i);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::pick_min_rsrc(0.7, candidates, load, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RsrcPick)->Arg(32)->Arg(128);

void BM_TraceGeneration(benchmark::State& state) {
  trace::GeneratorConfig config;
  config.profile = trace::ksu_profile();
  config.lambda = 1000;
  config.duration_s = static_cast<double>(state.range(0));
  config.seed = 3;
  for (auto _ : state) {
    const trace::Trace t = trace::generate(config);
    benchmark::DoNotOptimize(t.records.data());
    state.counters["requests"] = static_cast<double>(t.size());
  }
}
BENCHMARK(BM_TraceGeneration)->Arg(1)->Arg(10);

void BM_Theorem1Optimizer(benchmark::State& state) {
  model::Workload w;
  w.p = static_cast<int>(state.range(0));
  w.lambda = 30.0 * w.p;
  w.mu_h = 1200;
  w.a = 0.43;
  w.r = 1.0 / 40.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::optimize_ms(w));
  }
}
BENCHMARK(BM_Theorem1Optimizer)->Arg(32)->Arg(128);

void BM_EndToEndClusterRun(benchmark::State& state) {
  // One whole small experiment: trace generation + full cluster replay.
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 8;
  spec.lambda = 300;
  spec.duration_s = 2.0;
  spec.warmup_s = 0.5;
  spec.kind = core::SchedulerKind::kMs;
  for (auto _ : state) {
    const auto result = core::run_experiment(spec);
    benchmark::DoNotOptimize(result.run.metrics.stretch);
    state.counters["events"] = static_cast<double>(result.run.events);
  }
}
BENCHMARK(BM_EndToEndClusterRun);

}  // namespace

BENCHMARK_MAIN();
