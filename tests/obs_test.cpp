// Observability-layer tests: Chrome-trace JSON schema, probe determinism
// and interval exactness, counters vs. independently derived values, the
// decision log, the engine runaway guard, the structured log, and the
// pinned guarantee that enabling observability never changes run results
// (so obs-off artifacts stay byte-identical to a build without the layer).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/artifacts.hpp"
#include "check/json.hpp"
#include "core/experiment.hpp"
#include "core/metric_table.hpp"
#include "harness/sweep.hpp"
#include "obs/counters.hpp"
#include "obs/decision_log.hpp"
#include "obs/log.hpp"
#include "obs/probes.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "trace/profile.hpp"

// Every global allocation in this binary is counted, so the spans-off
// test can show that a null guard adds none to an engine kernel.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free() with the
// new-expressions it sees at each call site.
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}

namespace wsched {
namespace {

core::ExperimentSpec obs_spec(std::uint64_t seed = 7) {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 6;
  spec.lambda = 250;
  spec.r = 1.0 / 40.0;
  spec.duration_s = 4.0;
  spec.warmup_s = 1.0;
  spec.kind = core::SchedulerKind::kMs;
  spec.seed = seed;
  return spec;
}

// --- Chrome trace JSON: well-formed and schema-conformant ---

TEST(ObsTrace, ChromeJsonWellFormedAndSchemaValid) {
  obs::ChromeTraceSink sink;
  core::ExperimentSpec spec = obs_spec();
  spec.observer.trace = &sink;
  core::run_experiment(spec);
  ASSERT_GT(sink.event_count(), 100u);

  // The artifact checker holds the schema (src/check/artifacts.cpp).
  const check::ArtifactCheck trace = check::check_trace(sink.str());
  ASSERT_TRUE(trace.ok()) << trace.violation;
  EXPECT_EQ(trace.events, sink.event_count());
  EXPECT_GE(trace.min_pid, 0);
  EXPECT_LE(trace.max_pid, spec.p);  // node pids + the cluster pseudo-pid
  // No spans, net or control plane in this run: no flows, no such lanes.
  EXPECT_EQ(trace.flows, 0u);
  EXPECT_EQ(trace.categories.count("net") + trace.categories.count("ctrl"), 0u);

  // The run exercises every core category.
  EXPECT_GT(sink.category_count(obs::Category::kRequest), 0u);
  EXPECT_GT(sink.category_count(obs::Category::kDispatch), 0u);
  EXPECT_GT(sink.category_count(obs::Category::kCpu), 0u);
  EXPECT_GT(sink.category_count(obs::Category::kDisk), 0u);
  EXPECT_GT(sink.category_count(obs::Category::kReservation), 0u);
}

TEST(ObsTrace, Deterministic) {
  obs::ChromeTraceSink a, b;
  core::ExperimentSpec spec = obs_spec();
  spec.observer.trace = &a;
  core::run_experiment(spec);
  spec.observer.trace = &b;
  core::run_experiment(spec);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ObsTrace, RecentSummaryNamesActivity) {
  obs::ChromeTraceSink sink;
  core::ExperimentSpec spec = obs_spec();
  spec.observer.trace = &sink;
  core::run_experiment(spec);
  const std::string summary = sink.recent_summary();
  EXPECT_NE(summary.find("cpu="), std::string::npos);
  EXPECT_NE(summary.find("last events:"), std::string::npos);
}

// --- probes: interval-exact, deterministic, validated ---

TEST(ObsProbes, IntervalExactSampling) {
  obs::ProbeRecorder recorder(from_seconds(0.5));
  core::ExperimentSpec spec = obs_spec();
  spec.observer.probes = &recorder;
  const auto result = core::run_experiment(spec);
  ASSERT_GE(recorder.rounds(), 8u);  // ~4 s of trace at 0.5 s cadence

  std::set<Time> times;
  std::set<std::string> node_metrics, cluster_metrics;
  for (const obs::ProbeSample& sample : recorder.samples()) {
    times.insert(sample.at);
    (sample.node >= 0 ? node_metrics : cluster_metrics)
        .insert(sample.metric);
    if (sample.node >= 0) {
      EXPECT_LT(sample.node, spec.p);
    }
  }
  for (const Time t : times)
    EXPECT_EQ(t % from_seconds(0.5), 0)
        << "sample at " << to_seconds(t) << "s off the 0.5s grid";
  EXPECT_EQ(times.size(), recorder.rounds());

  const std::set<std::string> want_node{"cpu_idle_ratio", "disk_avail_ratio",
                                        "run_queue", "disk_queue",
                                        "mem_used_ratio", "alive"};
  const std::set<std::string> want_cluster{"a_hat", "r_hat", "theta_limit",
                                           "master_fraction"};
  EXPECT_EQ(node_metrics, want_node);
  EXPECT_EQ(cluster_metrics, want_cluster);
  EXPECT_EQ(result.run.completed, result.run.submitted);
}

TEST(ObsProbes, DeterministicAcrossRuns) {
  obs::ProbeRecorder a(from_seconds(0.25)), b(from_seconds(0.25));
  core::ExperimentSpec spec = obs_spec();
  spec.observer.probes = &a;
  core::run_experiment(spec);
  spec.observer.probes = &b;
  core::run_experiment(spec);
  std::ostringstream csv_a, csv_b;
  a.write_csv(csv_a);
  b.write_csv(csv_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_NE(csv_a.str().find("t_s,node,metric,value"), std::string::npos);
}

TEST(ObsProbes, RejectsBadUse) {
  EXPECT_THROW(obs::ProbeRecorder(0), std::invalid_argument);
  EXPECT_THROW(obs::ProbeRecorder(-5), std::invalid_argument);
  obs::ProbeRecorder recorder(from_seconds(1.0));
  recorder.sample(from_seconds(1.0), std::vector<obs::NodeProbe>(2),
                  obs::ClusterProbe{});
  EXPECT_THROW(recorder.sample(from_seconds(2.0),
                               std::vector<obs::NodeProbe>(3),
                               obs::ClusterProbe{}),
               std::invalid_argument);
}

TEST(ObsProbes, IdleWindowRatiosAreOne) {
  obs::ProbeRecorder recorder(from_seconds(1.0));
  // Two rounds with no busy-time growth: both ratios pegged at 1.
  std::vector<obs::NodeProbe> nodes(1);
  recorder.sample(from_seconds(1.0), nodes, obs::ClusterProbe{});
  recorder.sample(from_seconds(2.0), nodes, obs::ClusterProbe{});
  for (const obs::ProbeSample& sample : recorder.samples()) {
    if (std::string(sample.metric) == "cpu_idle_ratio" ||
        std::string(sample.metric) == "disk_avail_ratio") {
      EXPECT_DOUBLE_EQ(sample.value, 1.0);
    }
  }
}

// --- counters: cross-checked against independently computed values ---

TEST(ObsCounters, RegistryBasics) {
  obs::CounterRegistry registry;
  std::uint64_t* a = registry.handle("x.a");
  std::uint64_t* b = registry.handle("x.b");
  EXPECT_EQ(registry.handle("x.a"), a);  // stable handles
  obs::bump(a);
  obs::bump(a, 4);
  obs::bump(b);
  obs::bump(nullptr);  // null-safe no-op
  EXPECT_EQ(registry.value("x.a"), 5u);
  EXPECT_EQ(registry.value("x.b"), 1u);
  EXPECT_EQ(registry.value("never.touched"), 0u);
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "x.a");  // name-ordered
}

TEST(ObsCounters, MatchIndependentlyComputedValues) {
  obs::CounterRegistry registry;
  obs::DecisionLog decisions;
  core::ExperimentSpec spec = obs_spec();
  spec.observer.counters = &registry;
  spec.observer.decisions = &decisions;
  const auto result = core::run_experiment(spec);

  EXPECT_EQ(registry.value("dispatch.requests"), result.run.submitted);
  EXPECT_GT(registry.value("cpu.slices"), 0u);
  EXPECT_GT(registry.value("disk.slices"), 0u);
  EXPECT_GT(registry.value("cpu.forks"), 0u);
  EXPECT_GT(registry.value("reservation.updates"), 0u);

  // One decision record per front-end routing decision.
  EXPECT_EQ(decisions.size(), result.run.submitted);
  // With the cache off, dispatch.remote must equal the routed-away
  // decisions; recount independently from the log. (A cache hit demotes a
  // remote decision to local after the log records it, so this
  // cross-check only holds cache-off.)
  std::uint64_t remote = 0;
  for (const obs::DecisionRecord& record : decisions.records())
    if (record.remote) ++remote;
  EXPECT_EQ(registry.value("dispatch.remote"), remote);
}

TEST(ObsCounters, MetricTableNamesAreUniqueAndCountersAreCounts) {
  std::set<std::string> columns, counters;
  const core::ExperimentResult result;
  for (const core::Metric& metric : core::metric_table()) {
    ASSERT_TRUE(metric.column != nullptr || metric.counter != nullptr);
    if (metric.column != nullptr) {
      EXPECT_TRUE(columns.insert(metric.column).second) << metric.column;
    }
    if (metric.counter == nullptr) continue;
    EXPECT_TRUE(counters.insert(metric.counter).second) << metric.counter;
    EXPECT_TRUE(std::holds_alternative<unsigned long long>(
        metric.source(result)))
        << metric.counter;
  }
  EXPECT_EQ(counters.size(), 41u);
}

TEST(ObsCounters, CacheCountersMatchRunResult) {
  obs::CounterRegistry registry;
  core::ExperimentSpec spec = obs_spec();
  spec.cgi_cache_entries = 64;
  spec.observer.counters = &registry;
  const auto result = core::run_experiment(spec);
  EXPECT_GT(result.run.cache_lookups, 0u);
  EXPECT_EQ(registry.value("cache.lookups"), result.run.cache_lookups);
  EXPECT_EQ(registry.value("cache.hits"), result.run.cache_hits);
}

TEST(ObsCounters, FaultCountersMatchRunResult) {
  obs::CounterRegistry registry;
  core::ExperimentSpec spec = obs_spec(11);
  spec.fault.enabled = true;
  spec.fault.script.push_back(
      {from_seconds(1.2), 0, fault::FaultKind::kCrash, 1.0, 1.0});
  spec.fault.script.push_back(
      {from_seconds(2.5), 0, fault::FaultKind::kRecover, 1.0, 1.0});
  spec.observer.counters = &registry;
  const auto result = core::run_experiment(spec);
  EXPECT_EQ(registry.value("fault.redispatches"), result.run.redispatches);
  EXPECT_EQ(registry.value("fault.timeouts"), result.run.timeouts);
  EXPECT_EQ(registry.value("fault.promotions"), result.run.promotions);
  EXPECT_GT(result.run.node_crashes, 0u);
}

// --- decision log ---

TEST(ObsDecisions, RecordsExplainRouting) {
  obs::DecisionLog decisions;
  core::ExperimentSpec spec = obs_spec();
  spec.observer.decisions = &decisions;
  core::run_experiment(spec);
  ASSERT_GT(decisions.size(), 100u);

  std::uint64_t expected_seq = 0;
  bool saw_static = false, saw_rsrc = false;
  for (const obs::DecisionRecord& record : decisions.records()) {
    EXPECT_EQ(record.seq, expected_seq++);
    EXPECT_GE(record.chosen, 0);
    EXPECT_LT(record.chosen, spec.p);
    EXPECT_GE(record.receiver, 0);
    EXPECT_LT(record.receiver, spec.p);
    const std::string reason = record.reason;
    if (reason == "static-local") {
      saw_static = true;
      EXPECT_FALSE(record.dynamic);
      EXPECT_LT(record.w, 0.0);
      EXPECT_FALSE(record.remote);
      EXPECT_EQ(record.chosen, record.receiver);
      EXPECT_EQ(record.cand_count, 0u);
      EXPECT_TRUE(decisions.candidates_of(record).empty());
    } else if (reason == "min-rsrc" || reason == "min-rsrc-reserved") {
      saw_rsrc = true;
      EXPECT_TRUE(record.dynamic);
      EXPECT_GT(record.w, 0.0);
      // Candidates serialize as "node:score|node:score|...".
      const std::string candidates = decisions.candidates_of(record);
      ASSERT_FALSE(candidates.empty());
      EXPECT_NE(candidates.find(':'), std::string::npos);
      // The chosen node must be in the candidate set.
      EXPECT_NE(candidates.find(std::to_string(record.chosen) + ":"),
                std::string::npos);
    } else {
      ADD_FAILURE() << "unexpected reason " << reason;
    }
  }
  EXPECT_TRUE(saw_static);
  EXPECT_TRUE(saw_rsrc);
}

TEST(ObsDecisions, CsvHasStableHeader) {
  obs::DecisionLog decisions;
  obs::DecisionRecord record;
  record.at = from_seconds(1.5);
  record.reason = "min-rsrc";
  const obs::ScoredCandidate scored[] = {{0, 1.2}, {1, 3.4}};
  decisions.record(record, scored, 2);
  std::ostringstream out;
  decisions.write_csv(out);
  EXPECT_NE(
      out.str().find("seq,t_s,class,receiver,chosen,remote,w,reason,"
                     "stale_s,w_hat,theta_eff,candidates"),
      std::string::npos);
  EXPECT_NE(out.str().find("0:1.2000|1:3.4000"), std::string::npos);
}

TEST(ObsDecisions, GrayColumnsAreOptIn) {
  // Without the opt-in, the established header never changes — even for
  // a record that carries gray fields.
  {
    obs::DecisionLog plain;
    obs::DecisionRecord record;
    record.reason = "min-rsrc";
    record.slow_penalty = 2.0;
    record.hedged = true;
    plain.record(record, nullptr, 0);
    std::ostringstream out;
    plain.write_csv(out);
    EXPECT_EQ(out.str().find("slow_penalty"), std::string::npos);
    EXPECT_EQ(out.str().find("hedged"), std::string::npos);
  }
  // With it, the columns sit between theta_eff and candidates.
  obs::DecisionLog gray;
  gray.enable_gray_columns();
  obs::DecisionRecord record;
  record.reason = "min-rsrc";
  record.slow_penalty = 2.0;
  record.hedged = true;
  gray.record(record, nullptr, 0);
  std::ostringstream out;
  gray.write_csv(out);
  EXPECT_NE(
      out.str().find("seq,t_s,class,receiver,chosen,remote,w,reason,"
                     "stale_s,w_hat,theta_eff,slow_penalty,hedged,"
                     "candidates"),
      std::string::npos);
}

// --- artifact files: empty recorders and failed writes ------------------

TEST(ObsFiles, EmptyRecordersWriteNoHeader) {
  std::ostringstream probes_csv, decisions_csv;
  obs::ProbeRecorder(from_seconds(0.1)).write_csv(probes_csv);
  obs::DecisionLog().write_csv(decisions_csv);
  EXPECT_EQ(probes_csv.str(), "");
  EXPECT_EQ(decisions_csv.str(), "");
}

// Every write lands in /dev/full's ENOSPC: each writer must throw rather
// than leave a silently truncated artifact behind.
TEST(ObsFiles, TraceWriteToFullDiskThrows) {
  obs::ChromeTraceSink sink;
  sink.instant(obs::Category::kDispatch, "dispatch", 0, obs::kLaneDispatch,
               from_seconds(1.0), {{"node", 3}});
  EXPECT_THROW(sink.write_file("/dev/full"), std::runtime_error);
}

TEST(ObsFiles, ProbeWriteToFullDiskThrows) {
  obs::ProbeRecorder probes(from_seconds(0.1));
  probes.sample(from_seconds(0.1), {obs::NodeProbe{}}, obs::ClusterProbe{});
  EXPECT_THROW(probes.write_csv_file("/dev/full"), std::runtime_error);
}

TEST(ObsFiles, DecisionWriteToFullDiskThrows) {
  obs::DecisionLog decisions;
  obs::DecisionRecord record;
  record.reason = "min-rsrc";
  decisions.record(record);
  EXPECT_THROW(decisions.write_csv_file("/dev/full"), std::runtime_error);
}

TEST(ObsFiles, ExemplarWriteToFullDiskThrows) {
  obs::SpanRecorder spans;
  spans.on_arrival(1, 0, true, from_seconds(0.01), 0);
  spans.terminal(1, obs::SpanOutcome::kCompleted, from_seconds(0.02));
  EXPECT_THROW(spans.write_exemplars_file("/dev/full", 3),
               std::runtime_error);
}

TEST(ObsDecisions, GrayRunsStampHedgedDispatches) {
  // A hedging run's decision log flips to the extended schema and marks
  // hedge-copy routing decisions.
  obs::DecisionLog decisions;
  core::ExperimentSpec spec = obs_spec(11);
  spec.fault.enabled = true;
  spec.fault.degrade_mttf_s = 2.0;
  spec.fault.degrade_mttr_s = 1.0;
  spec.fault.degrade_cpu_factor = 0.1;
  spec.fault.stall_period_s = 0.5;
  spec.hedge.enabled = true;
  spec.observer.decisions = &decisions;
  const auto result = core::run_experiment(spec);
  ASSERT_GT(result.run.hedges_launched, 0u);
  EXPECT_TRUE(decisions.gray_columns());
  std::size_t hedged = 0;
  for (const obs::DecisionRecord& record : decisions.records())
    if (record.hedged) ++hedged;
  // Every hedge routing decision is stamped — the launched ones and the
  // ones skipped for want of a distinct healthy target.
  EXPECT_EQ(hedged, result.run.hedges_launched + result.run.hedges_skipped);
}

// --- observability never perturbs results ---

TEST(ObsNeutrality, ArtifactsByteIdenticalWithObservabilityOn) {
  harness::GridPoint point;
  point.spec = obs_spec();
  point.spec.cgi_cache_entries = 32;
  const harness::ResultRow plain = harness::experiment_row(point);

  obs::ChromeTraceSink sink;
  obs::CounterRegistry registry;
  obs::DecisionLog decisions;
  obs::ProbeRecorder probes(from_seconds(0.5));
  point.spec.observer = {&sink, &registry, &decisions, &probes};
  const harness::ResultRow traced = harness::experiment_row(point);

  std::ostringstream csv_plain, csv_traced;
  harness::write_csv(csv_plain, {plain});
  harness::write_csv(csv_traced, {traced});
  EXPECT_EQ(csv_plain.str(), csv_traced.str());
  EXPECT_GT(sink.event_count(), 0u);  // the traced run really traced
}

// --- file-backed observability through ExperimentSpec::obs ---

TEST(ObsFiles, RunExperimentWritesRequestedArtifacts) {
  const std::string trace_path = "obs_test_trace.json";
  const std::string decisions_path = "obs_test_decisions.csv";
  const std::string probes_path = "obs_test_trace.probes.csv";
  core::ExperimentSpec spec = obs_spec();
  spec.duration_s = 2.0;
  spec.obs.trace_path = trace_path;
  spec.obs.probe_interval_s = 0.5;
  spec.obs.decision_log_path = decisions_path;
  core::run_experiment(spec);

  const check::ArtifactCheck trace =
      check::check_trace(check::read_file(trace_path));
  EXPECT_TRUE(trace.ok()) << trace.violation;
  // Derived from the trace stem; the header is t_s,node,metric,value.
  const check::ArtifactCheck probes =
      check::check_probes(check::read_file(probes_path));
  EXPECT_TRUE(probes.ok()) << probes.violation;

  ASSERT_NO_THROW(check::read_file(decisions_path));

  std::remove(trace_path.c_str());
  std::remove(probes_path.c_str());
  std::remove(decisions_path.c_str());
}

// --- engine runaway guard ---

TEST(ObsGuard, MaxEventsAbortsWithDiagnostics) {
  sim::Engine engine;
  std::function<void()> forever = [&] {
    engine.schedule_after(kMillisecond, forever);
  };
  engine.schedule_at(0, forever);
  engine.set_guard(100);
  engine.set_guard_diagnostics([] { return std::string("spinning hot"); });
  try {
    engine.run();
    FAIL() << "guard did not trip";
  } catch (const sim::EngineGuardError& error) {
    EXPECT_EQ(error.processed, 100u);
    EXPECT_NE(std::string(error.what()).find("max events"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("spinning hot"),
              std::string::npos);
  }
}

TEST(ObsGuard, WallClockBudgetAborts) {
  sim::Engine engine;
  std::function<void()> forever = [&] {
    engine.schedule_after(kMillisecond, forever);
  };
  engine.schedule_at(0, forever);
  // A budget that is already spent when the first check anchors: the guard
  // trips at the next amortized clock read (every 8192 events).
  engine.set_guard(0, 1e-9);
  EXPECT_THROW(engine.run(), sim::EngineGuardError);
}

TEST(ObsGuard, DisarmedGuardRunsToCompletion) {
  sim::Engine engine;
  int fired = 0;
  for (int i = 0; i < 10; ++i)
    engine.schedule_at(i * kMillisecond, [&] { ++fired; });
  engine.set_guard(100);
  engine.set_guard(0, 0.0);  // disarm again
  engine.run();
  EXPECT_EQ(fired, 10);
}

TEST(ObsGuard, PropagatesThroughExperiment) {
  core::ExperimentSpec spec = obs_spec();
  const std::uint64_t needed = core::run_experiment(spec).run.events;
  ASSERT_GT(needed, 4u);
  spec.max_events = needed / 4;  // far below what the run needs
  EXPECT_THROW(core::run_experiment(spec), sim::EngineGuardError);
}

// --- request-causal span tracing ---

/// The recorder's tallies, taken as each request is folded: per-job
/// closure (the eight ledger phases sum to the sojourn exactly, integer
/// nanoseconds) is checked on every terminated request, and the outcome
/// tallies must account for exactly the requests the class sums hold.
obs::SpanSummary checked_summary(const obs::SpanRecorder& spans) {
  const obs::SpanSummary summary = spans.summarize();
  EXPECT_TRUE(summary.enabled);
  EXPECT_EQ(summary.closure_violations, 0u)
      << "phase sums missed the sojourn";
  std::uint64_t terminated = 0;
  for (std::size_t o = 0; o < obs::kSpanOutcomeCount; ++o)
    if (static_cast<obs::SpanOutcome>(o) != obs::SpanOutcome::kInFlight)
      terminated += summary.outcomes[o];
  EXPECT_EQ(terminated, summary.cls[0].count + summary.cls[1].count);
  return summary;
}

/// Requests the summary holds as terminated.
std::uint64_t terminated_count(const obs::SpanSummary& summary) {
  return summary.cls[0].count + summary.cls[1].count;
}

TEST(ObsSpans, ClosureAndLedgerUnderOverload) {
  // Overload drill: deadlines, queue shedding and client retries produce
  // every admission-side outcome (completed, shed, abandoned) in one run.
  obs::SpanRecorder spans;
  core::ExperimentSpec spec = obs_spec();
  spec.lambda = 1400;  // far past the p=6 knee so shedding really engages
  spec.overload.deadline.static_s = 0.5;
  spec.overload.deadline.dynamic_s = 1.0;
  spec.overload.admission.policy = overload::AdmissionPolicy::kQueueDepth;
  spec.overload.admission.max_queue = 4.0;
  spec.overload.max_retries = 1;
  spec.observer.spans = &spans;
  const auto result = core::run_experiment(spec);

  // Every submitted request was recorded and reached a terminal state.
  const obs::SpanSummary summary = checked_summary(spans);
  EXPECT_EQ(summary.outcome_count(obs::SpanOutcome::kInFlight), 0u);
  EXPECT_EQ(terminated_count(summary), result.run.submitted);

  // The recorder's outcome tallies are the overload ledger, recounted.
  EXPECT_EQ(summary.outcome_count(obs::SpanOutcome::kCompleted),
            result.run.completed);
  EXPECT_EQ(summary.outcome_count(obs::SpanOutcome::kShed), result.run.shed);
  EXPECT_EQ(summary.outcome_count(obs::SpanOutcome::kAbandoned),
            result.run.abandoned);
  EXPECT_GT(result.run.shed, 0u);
  EXPECT_GT(result.run.abandoned, 0u);
  // Dynamic requests must spend CPU time; static ones disk time.
  EXPECT_GT(summary.cls[1].phase_s[static_cast<int>(obs::SpanPhase::kCpu)],
            0.0);
  EXPECT_GT(summary.cls[0].phase_s[static_cast<int>(obs::SpanPhase::kDisk)],
            0.0);
}

TEST(ObsSpans, ClosureAndAttemptsUnderFaults) {
  // Crash + recovery: re-dispatched requests pick up extra node visits and
  // failover-backoff time, and the ledger still closes for every outcome.
  obs::SpanRecorder spans;
  core::ExperimentSpec spec = obs_spec(11);
  spec.lambda = 400;  // enough live work on the victim at crash time
  spec.fault.enabled = true;
  spec.fault.script.push_back(
      {from_seconds(1.2), 2, fault::FaultKind::kCrash, 1.0, 1.0});
  spec.fault.script.push_back(
      {from_seconds(2.5), 2, fault::FaultKind::kRecover, 1.0, 1.0});
  spec.observer.spans = &spans;
  const auto result = core::run_experiment(spec);
  ASSERT_GT(result.run.redispatches, 0u);

  const obs::SpanSummary summary = checked_summary(spans);
  EXPECT_EQ(terminated_count(summary), result.run.submitted);
  EXPECT_EQ(summary.outcome_count(obs::SpanOutcome::kCompleted),
            result.run.completed);
  EXPECT_EQ(summary.outcome_count(obs::SpanOutcome::kTimeout),
            result.run.timeouts);

  // At least one request visited more than one node, and some failover
  // backoff time was charged cluster-wide.
  EXPECT_GE(summary.max_attempts, 2u);
  const auto backoff = static_cast<std::size_t>(obs::SpanPhase::kBackoff);
  EXPECT_GT(summary.cls[0].phase_s[backoff] + summary.cls[1].phase_s[backoff],
            0.0);
}

TEST(ObsSpans, SharedColumnsUnchangedAndSpanColumnsAppended) {
  harness::GridPoint point;
  point.spec = obs_spec();
  const harness::ResultRow plain = harness::experiment_row(point);

  point.spec.obs.spans = true;
  const harness::ResultRow with_spans = harness::experiment_row(point);

  // Spans only append columns: every spans-off field keeps its exact text.
  for (const harness::Field& field : plain.fields()) {
    ASSERT_TRUE(with_spans.has(field.name)) << field.name;
    EXPECT_EQ(with_spans.text(field.name), field.text) << field.name;
  }
  EXPECT_FALSE(plain.has("span_static_n"));
  EXPECT_TRUE(with_spans.has("span_static_n"));
  EXPECT_TRUE(with_spans.has("span_dynamic_cpu_wait_s"));
  EXPECT_EQ(with_spans.text("span_closure_violations"), "0");

  // The decomposition means sum to the mean sojourn (up to print rounding).
  for (const char* cls : {"static", "dynamic"}) {
    const std::string prefix = std::string("span_") + cls + "_";
    double phase_sum = 0.0;
    for (const char* phase : {"admission", "backoff", "net", "hop",
                              "cpu_wait", "cpu", "disk_wait", "disk"})
      phase_sum += with_spans.number(prefix + phase + "_s");
    EXPECT_NEAR(phase_sum, with_spans.number(prefix + "sojourn_s"),
                1e-8 * std::max(1.0, phase_sum));
    EXPECT_GT(with_spans.number(prefix + "n"), 0.0);
  }
}

TEST(ObsSpans, ExemplarsDeterministicAcrossRunsAndJobs) {
  obs::SpanRecorder a, b;
  core::ExperimentSpec spec = obs_spec();
  spec.observer.spans = &a;
  core::run_experiment(spec);
  spec.observer.spans = &b;
  core::run_experiment(spec);
  const std::string dump = a.exemplars_str(3);
  EXPECT_EQ(dump, b.exemplars_str(3));
  // Every field present, worst-first within each class, exact integer
  // closure per exemplar.
  const check::ArtifactCheck checked = check::check_exemplars(dump);
  ASSERT_TRUE(checked.ok()) << checked.violation;
  EXPECT_EQ(checked.k, 3);
  EXPECT_GT(checked.exemplars, 0u);

  // A sweep with spans on stays byte-identical across worker counts.
  harness::SweepSpec sweep;
  sweep.base = obs_spec();
  sweep.base.duration_s = 2.0;
  sweep.base.obs.spans = true;
  sweep.axes.push_back(
      harness::lambda_axis(std::vector<double>{200.0, 300.0}));
  harness::SweepOptions serial_opts, parallel_opts;
  serial_opts.jobs = 1;
  parallel_opts.jobs = 2;
  const harness::SweepRun serial =
      harness::run_sweep(sweep, serial_opts, harness::experiment_row);
  const harness::SweepRun parallel =
      harness::run_sweep(sweep, parallel_opts, harness::experiment_row);
  std::ostringstream csv_serial, csv_parallel;
  harness::write_csv(csv_serial, serial.rows);
  harness::write_csv(csv_parallel, parallel.rows);
  EXPECT_EQ(csv_serial.str(), csv_parallel.str());
  EXPECT_NE(csv_serial.str().find("span_dynamic_cpu_wait_s"),
            std::string::npos);
}

TEST(ObsSpans, FlowEventsPairUpInTrace) {
  // Spans + trace: each request contributes one flow start ('s'), one
  // dispatch step ('t') and one finish ('f'), all sharing the job id.
  obs::ChromeTraceSink sink;
  obs::SpanRecorder spans;
  core::ExperimentSpec spec = obs_spec();
  spec.observer.trace = &sink;
  spec.observer.spans = &spans;
  const auto result = core::run_experiment(spec);

  // Strict flows: one 's', only 't' steps, then one 'f' with bp=e per id.
  const check::ArtifactRequirements strict{{}, false, false, true};
  const check::ArtifactCheck trace = check::check_trace(sink.str(), strict);
  ASSERT_TRUE(trace.ok()) << trace.violation;
  EXPECT_EQ(trace.phases.at("s"), result.run.submitted);
  EXPECT_EQ(trace.phases.at("f"), result.run.submitted);  // all ended
  EXPECT_GE(trace.phases.at("t"), trace.phases.at("s"));  // failover steps

  // Without spans the same run's trace carries no flow events at all —
  // the spans-off byte-identity contract for trace artifacts — and every
  // other event is unchanged, so the flows are all on the request lane.
  obs::ChromeTraceSink plain_sink;
  spec.observer.trace = &plain_sink;
  spec.observer.spans = nullptr;
  core::run_experiment(spec);
  const check::ArtifactCheck plain = check::check_trace(plain_sink.str());
  ASSERT_TRUE(plain.ok()) << plain.violation;
  EXPECT_EQ(plain.flows, 0u);
  const std::size_t flows =
      trace.phases.at("s") + trace.phases.at("t") + trace.phases.at("f");
  EXPECT_EQ(trace.events - plain.events, flows);
  EXPECT_EQ(trace.categories.at("request") - plain.categories.at("request"),
            flows);
}

/// Expects two span summaries to agree field for field, exactly.
void expect_same_summary(const obs::SpanSummary& a, const obs::SpanSummary& b) {
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.closure_violations, b.closure_violations);
  for (int cls = 0; cls < 2; ++cls) {
    EXPECT_EQ(a.cls[cls].count, b.cls[cls].count) << "class " << cls;
    EXPECT_EQ(a.cls[cls].sojourn_s, b.cls[cls].sojourn_s) << "class " << cls;
    for (std::size_t ph = 0; ph < obs::kSpanPhaseCount; ++ph)
      EXPECT_EQ(a.cls[cls].phase_s[ph], b.cls[cls].phase_s[ph])
          << "class " << cls << " phase " << ph;
  }
}

TEST(ObsSpans, StreamingExemplarsMatchBruteForceSort) {
  // Hook-level: requests terminate out of arrival order, stretches tie
  // often (equal sojourn/demand pairs), some demands are zero and some
  // requests never terminate. Freed chains are reused by later spans, so
  // pool indices no longer ascend within a request. The retained worst K
  // must equal the top K of a full (stretch desc, job asc) sort.
  constexpr int kRetain = 4;
  constexpr std::uint64_t kJobs = 240;
  obs::SpanRecorder spans(kRetain);
  std::mt19937 rng(12345);
  const Time ms = from_seconds(0.001);
  // A zero demand ranks by raw sojourn, i.e. as if the demand were 1 s.
  const Time demands[] = {0, from_seconds(1.0), from_seconds(2.0)};
  const Time sojourns[] = {10 * ms, 20 * ms, 40 * ms};
  struct Expected {
    bool dynamic;
    Time arrival, demand, end;
  };
  std::vector<Expected> jobs(kJobs + 1);
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    Expected& e = jobs[job];
    e.dynamic = rng() % 2 == 0;
    e.arrival = static_cast<Time>(job) * ms;
    e.demand = demands[rng() % 3];
    e.end = e.arrival + sojourns[rng() % 3];
    spans.on_arrival(job, e.arrival, e.dynamic, e.demand, 9);
  }
  std::vector<std::uint64_t> order;
  for (std::uint64_t job = 1; job <= kJobs; ++job) order.push_back(job);
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[rng() % (i + 1)]);
  std::size_t in_flight = 0;
  for (const std::uint64_t job : order) {
    const Expected& e = jobs[job];
    spans.begin_visit(job, e.arrival + 1 * ms, static_cast<int>(job % 5));
    spans.cpu_run(job, e.arrival + 2 * ms);
    if (job % 7 == 0) {  // stays in flight: root, visit and cpu slice
      ++in_flight;
      continue;
    }
    spans.cpu_wait(job, e.arrival + 3 * ms);
    spans.disk_run(job, e.arrival + 4 * ms);
    spans.note(job, "paging", e.arrival + 5 * ms, static_cast<int>(job));
    spans.terminal(job, obs::SpanOutcome::kCompleted, e.end);
  }

  // Brute force: rank every terminated request, exactly as the old full
  // sort did.
  struct Ranked {
    double stretch;
    std::uint64_t job;
  };
  std::vector<Ranked> ranked[2];
  for (std::uint64_t job = 1; job <= kJobs; ++job) {
    if (job % 7 == 0) continue;
    const Expected& e = jobs[job];
    const double basis = e.demand > 0 ? to_seconds(e.demand) : 1.0;
    ranked[e.dynamic ? 1 : 0].push_back(
        {to_seconds(e.end - e.arrival) / basis, job});
  }
  for (auto& list : ranked)
    std::sort(list.begin(), list.end(), [](const Ranked& a, const Ranked& b) {
      if (a.stretch != b.stretch) return a.stretch > b.stretch;
      return a.job < b.job;
    });
  // The sampled data must exercise ties and zero demand among the winners.
  for (const auto& list : ranked) {
    ASSERT_EQ(list[0].stretch, list[kRetain].stretch);
    bool zero_demand = false;
    for (int i = 0; i < kRetain; ++i)
      zero_demand |= jobs[list[i].job].demand == 0;
    ASSERT_TRUE(zero_demand);
  }

  for (int k = 0; k <= kRetain; ++k) {
    const std::string dump = spans.exemplars_str(k);
    const check::ArtifactCheck checked = check::check_exemplars(dump);
    ASSERT_TRUE(checked.ok()) << "k=" << k << ": " << checked.violation;
    std::vector<std::uint64_t> want, got;
    for (const auto& list : ranked)
      for (int i = 0; i < k; ++i) want.push_back(list[i].job);
    const check::JsonValue doc = check::parse_json(dump);
    for (const check::JsonValue& ex : doc.find("exemplars")->array) {
      const auto job = static_cast<std::uint64_t>(ex.find("job")->number);
      got.push_back(job);
      EXPECT_NE(job % 7, 0u) << "in-flight job " << job << " dumped";
      // The tree survived slot reuse: local ids ascend from 0 and each
      // parent points at the span it was opened under.
      const auto& list = ex.find("spans")->array;
      ASSERT_EQ(list.size(), 5u) << "job " << job;
      const char* names[] = {"request", "visit", "cpu", "disk", "paging"};
      const int parents[] = {-1, 0, 1, 1, 1};
      for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(list[i].find("id")->number, i);
        EXPECT_EQ(list[i].find("name")->string, names[i]);
        EXPECT_EQ(list[i].find("parent")->number, parents[i]);
      }
      EXPECT_EQ(list[0].find("start_ns")->number,
                static_cast<double>(jobs[job].arrival));
      EXPECT_EQ(list[4].find("value")->number, static_cast<double>(job));
    }
    EXPECT_EQ(got, want) << "k=" << k;
    if (k == kRetain) {
      // Live spans: the in-flight chains plus the retained trees only.
      EXPECT_EQ(spans.span_count(), 3 * in_flight + checked.spans);
    }
  }
  EXPECT_THROW(spans.exemplars_str(kRetain + 1), std::invalid_argument);
}

TEST(ObsSpans, ClassChangeAfterTerminalIsIgnored) {
  // A request's class and demand are final at terminal(): a late on_class
  // moves neither the per-class ledger sums nor the exemplar ranking.
  obs::SpanRecorder spans;
  const Time ms = from_seconds(0.001);
  spans.on_arrival(1, 0, true, 10 * ms, 0);
  spans.on_arrival(2, 0, true, 10 * ms, 0);
  spans.terminal(1, obs::SpanOutcome::kCompleted, 30 * ms);
  spans.terminal(2, obs::SpanOutcome::kCompleted, 20 * ms);
  const obs::SpanSummary summary = spans.summarize();
  const std::string dump = spans.exemplars_str(3);

  spans.on_class(2, false, 1 * ms);  // would outrank job 1 as static
  expect_same_summary(spans.summarize(), summary);
  EXPECT_EQ(spans.exemplars_str(3), dump);
  EXPECT_EQ(summary.cls[1].count, 2u);
}

TEST(ObsSpans, LiveSpansStayBoundedOverLongRun) {
  // 300 simulated seconds (~75k requests): spans are freed as requests
  // finish, so what is held at the end is the retained worst K per class,
  // and the pool never grew past the in-flight working set.
  obs::SpanRecorder spans(3);
  core::ExperimentSpec spec = obs_spec();
  spec.duration_s = 300.0;
  spec.observer.spans = &spans;
  const auto result = core::run_experiment(spec);
  ASSERT_EQ(checked_summary(spans).outcome_count(obs::SpanOutcome::kInFlight),
            0u);

  const check::ArtifactCheck checked =
      check::check_exemplars(spans.exemplars_str(3));
  ASSERT_TRUE(checked.ok()) << checked.violation;
  EXPECT_LE(checked.exemplars, 6u);
  EXPECT_EQ(spans.span_count(), checked.spans);
  EXPECT_GT(result.run.submitted, 50'000u);
  EXPECT_LT(spans.span_slots(), result.run.submitted / 50);
}

TEST(ObsSpans, LedgerAndHedgeWindowsStayFlatOverTenfoldHorizon) {
  // The span ledger and the hedge state hold a job-id window from the
  // oldest request still in flight to the newest arrival, not one entry
  // per request: ten times the horizon (and the requests) must leave both
  // high-water marks where they were, with the ledger's totals intact.
  struct Windows {
    std::uint64_t submitted = 0;
    std::size_t spans = 0;
    std::size_t hedges = 0;
  };
  const auto run = [](double seconds) {
    obs::SpanRecorder spans(3);
    core::ExperimentSpec spec = obs_spec();
    spec.duration_s = seconds;
    spec.hedge.enabled = true;
    spec.overload.deadline.static_s = 2.0;
    spec.overload.deadline.dynamic_s = 5.0;
    spec.observer.spans = &spans;
    const auto result = core::run_experiment(spec);
    EXPECT_GT(result.run.hedges_launched, 0u);
    const obs::SpanSummary summary = checked_summary(spans);
    EXPECT_EQ(summary.outcome_count(obs::SpanOutcome::kInFlight), 0u);
    EXPECT_EQ(terminated_count(summary), result.run.submitted);
    return Windows{result.run.submitted, spans.window_high_water(),
                   result.run.hedge_window_high_water};
  };
  const Windows short_run = run(30.0);
  const Windows long_run = run(300.0);
  ASSERT_GT(long_run.submitted, 9 * short_run.submitted);
  EXPECT_GT(short_run.spans, 0u);
  EXPECT_GT(short_run.hedges, 0u);
  EXPECT_LE(long_run.spans, 2 * short_run.spans)
      << short_run.spans << " at 30 s, " << long_run.spans << " at 300 s";
  EXPECT_LE(long_run.hedges, 2 * short_run.hedges)
      << short_run.hedges << " at 30 s, " << long_run.hedges << " at 300 s";
  EXPECT_LT(long_run.spans, long_run.submitted / 50);
  EXPECT_LT(long_run.hedges, long_run.submitted / 50);
}

TEST(ObsSpans, LedgerOnlyRecorderSummarizesIdentically) {
  // Retention 0 keeps the ledger and builds no tree: the same run yields
  // the same decomposition as a tree-keeping recorder.
  obs::SpanRecorder ledger(0), trees(3);
  core::ExperimentSpec spec = obs_spec();
  spec.lambda = 400;
  spec.observer.spans = &ledger;
  core::run_experiment(spec);
  spec.observer.spans = &trees;
  core::run_experiment(spec);
  expect_same_summary(ledger.summarize(), trees.summarize());
  EXPECT_EQ(ledger.span_count(), 0u);
  EXPECT_EQ(ledger.span_slots(), 0u);
  EXPECT_GT(trees.span_count(), 0u);
  EXPECT_NE(ledger.exemplars_str(0).find("\"exemplars\": [\n  ]"),
            std::string::npos);
  EXPECT_THROW(ledger.exemplars_str(1), std::invalid_argument);
}

TEST(ObsSpans, SpansOffAddsNoEventsOrAllocations) {
  // The zero-cost-when-off contract, counted rather than timed: every
  // instrumentation site is a single null-pointer branch, so a raw engine
  // kernel (1M scattered closures) whose closures carry that guard with
  // spans disabled must process exactly the events and make exactly the
  // heap allocations of the bare kernel. (The spans-ON replay cost is a
  // feature cost, reported as obs.spans_on_cost by the benchmark under
  // perf/, not bounded here.)
  constexpr std::uint64_t kTotal = 1'000'000;
  obs::SpanRecorder* const spans = nullptr;  // spans off
  struct KernelCost {
    std::uint64_t events = 0;
    std::uint64_t allocations = 0;
  };
  auto run_kernel = [&](bool guarded) {
    KernelCost cost;
    const std::uint64_t before = g_allocations.load();
    {
      sim::Engine engine;
      std::uint64_t done = 0;
      std::uint64_t x = 0x2545F4914F6CDD1Dull;
      for (std::uint64_t i = 0; i < kTotal; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Time at = static_cast<Time>(x % 1'000'000'000ull);
        if (guarded) {
          engine.schedule_at(at, [&done, spans] {
            ++done;
            if (spans != nullptr) spans->note(0, "tick", 0);  // never taken
          });
        } else {
          engine.schedule_at(at, [&done] { ++done; });
        }
      }
      engine.run();
      if (done != kTotal) throw std::runtime_error("kernel lost events");
      cost.events = engine.events_processed();
    }
    cost.allocations = g_allocations.load() - before;
    return cost;
  };
  const KernelCost bare = run_kernel(false);
  const KernelCost guarded = run_kernel(true);
  EXPECT_EQ(bare.events, kTotal);
  EXPECT_EQ(guarded.events, bare.events);
  EXPECT_GT(bare.allocations, 0u) << "the allocation counter saw nothing";
  EXPECT_EQ(guarded.allocations, bare.allocations)
      << "the null guard changed the kernel's heap allocations";
}

TEST(ObsAllocations, NetOverloadHedgeRequestsAllocateNothingInSteadyState) {
  // The per-request paths of the net model (RPC data, acks, timeouts,
  // retransmits, load reports), the overload deadline and the hedge timers
  // run on pooled contexts. Doubling the horizon doubles the requests but
  // must add almost no heap allocations: the difference between the two
  // runs is the steady-state cost per request, with set-up and pool
  // warm-up cancelled out.
  const auto run = [](double seconds) {
    core::ExperimentSpec spec;
    spec.profile = trace::ksu_profile();
    spec.p = 8;
    spec.lambda = 300;
    spec.duration_s = seconds;
    spec.warmup_s = 0.5;
    spec.seed = 1234;
    spec.kind = core::SchedulerKind::kMs;
    spec.net.enabled = true;
    spec.net.loss = 0.02;
    spec.net.latency_jitter_s = 0.001;
    spec.overload.deadline.static_s = 2.0;
    spec.overload.deadline.dynamic_s = 4.0;
    spec.hedge.enabled = true;
    const std::uint64_t before = g_allocations.load();
    const core::ExperimentResult result = core::run_experiment(spec);
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_GT(result.run.net_rpc_retries, 0u);
    EXPECT_GT(result.run.net_reports, 0u);
    EXPECT_GT(result.run.hedges_launched, 0u);
    return std::pair{result.run.submitted, allocations};
  };
  const auto [short_requests, short_allocations] = run(20.0);
  const auto [long_requests, long_allocations] = run(40.0);
  ASSERT_GT(long_requests, short_requests);
  const double per_request =
      (static_cast<double>(long_allocations) -
       static_cast<double>(short_allocations)) /
      static_cast<double>(long_requests - short_requests);
  EXPECT_LT(per_request, 0.5)
      << short_allocations << " allocations for " << short_requests
      << " requests, " << long_allocations << " for " << long_requests;
}

// --- artifact checker: one mutated real artifact per rule ---

using namespace check;

/// Everything the real run satisfies, so each mutation trips one rule.
const ArtifactRequirements kEverything{
    {"X", "i", "C", "b", "e", "M", "s", "t", "f"}, true, true, true, true};

/// `text` with the first `from` after `anchor` (every `from` when `all`)
/// replaced by `to`; `from` "]" appends to the trace's event array.
std::string mutated(std::string text, const std::string& from,
                    const std::string& to, const std::string& anchor = "",
                    bool all = false) {
  std::size_t at =
      from == "]" ? text.rfind(']') : text.find(from, text.find(anchor));
  EXPECT_NE(at, std::string::npos) << "nothing to mutate: " << from;
  for (; at != std::string::npos; at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
    if (!all) break;
  }
  return text;
}

/// The real artifact passes `check`; each mutated copy (rule, text) fails
/// with a violation naming its rule.
template <class Check>
void expect_each_refused(
    const std::string& real,
    const std::vector<std::pair<const char*, std::string>>& mutations,
    Check check) {
  EXPECT_EQ(check(real).violation, "");
  for (const auto& [rule, text] : mutations)
    EXPECT_NE(check(text).violation.find(rule), std::string::npos)
        << "rule '" << rule << "' got '" << check(text).violation << "'";
}

// One table per artifact. Each ends with malformed input (truncated, not
// JSON or CSV, nested past the reader's cap): refused, not crashed on.
TEST(ObsArtifacts, EachRuleRefusesItsMutation) {
  // One short run writing every artifact the checker reads, on every lane
  // it has a rule for: net, ctrl, hedging, request flows and exemplars.
  obs::ChromeTraceSink sink;
  obs::ProbeRecorder recorder(from_seconds(0.5));
  obs::SpanRecorder spans(3);
  core::ExperimentSpec spec = obs_spec(11);
  spec.net.enabled = spec.ctrl.enabled = spec.hedge.enabled = true;
  spec.net.loss = 0.02;
  spec.observer = {.trace = &sink, .probes = &recorder, .spans = &spans};
  core::run_experiment(spec);
  std::ostringstream csv;
  recorder.write_csv(csv);
  const std::string t = sink.str(), p = csv.str(), x = spans.exemplars_str(3);

  const std::string open = mutated(
      t, "]", R"(,{"name":"req","cat":"request","ph":"s","pid":0,"ts":9,
                   "id":"0xfff"}])");
  const std::string unhedged =
      mutated(t, R"("name":"hedge")", R"("name":"hedged")", "", true);
  const char* copy_end = R"("name":"cgi-hedge","cat":"request","ph":"e")";
  // The first cancelled loser's race, with its winner cancelled too.
  const std::size_t loser = t.find(R"("cancelled":1)");
  const std::size_t id = t.rfind(R"("id":")", loser);
  const std::string race = t.substr(id, t.find('"', id + 6) + 1 - id);
  const std::string both =
      mutated(t, R"("args":{"response_s")",
              R"("args":{"cancelled":1,"response_s")",
              race + R"(,"args":{"response_s")");
  expect_each_refused(
      t,
      {{"\"traceEvents\"", mutated(t, "traceEvents", "events")},
       {"non-empty", R"({"traceEvents": []})"},
       {"event 0 (): not an object with a name", mutated(t, "[", "[7,")},
       {"bad phase \"Q\"", mutated(t, R"("ph":"X")", R"("ph":"Q")")},
       {"missing integer pid", mutated(t, R"("pid":0,)", R"("pid":0.5,)")},
       {"bad category \"gpu\"", mutated(t, R"("cat":"cpu")", R"("cat":"gpu")")},
       {"bad ts -1", mutated(t, R"("ts":)", R"("ts":-1,"x":)", R"("ph":"X")")},
       {"bad dur none", mutated(t, R"("dur":)", R"("dux":)")},
       {"instant without scope", mutated(t, R"("s":"t")", R"("z":"t")")},
       {"hedge instant without job",
        mutated(t, R"("job":)", R"("job":1.5,"x":)", R"("name":"hedge")")},
       {"async or flow event without id",
        mutated(t, R"("id":)", R"("ix":)", R"("ph":"s")")},
       {"async end before begin", mutated(t, R"("ph":"b")", R"("ph":"e")")},
       {"flow finish without bp=e", mutated(t, R"("bp":"e")", R"("bp":"x")")},
       {"events 'ttf', not one 's'", mutated(t, R"("ph":"s")", R"("ph":"t")")},
       {"events 'sff', not one 's'",
        mutated(t, R"("ph":"t")", R"("ph":"f","bp":"e")")},
       {"no finish", open},
       {"no 'C' events (required)",
        mutated(t, R"("ph":"C")", R"("ph":"i","s":"t")", "", true)},
       {"no net-lane events",
        mutated(t, R"("cat":"net")", R"("cat":"log")", "", true)},
       {"no ctrl-lane events",
        mutated(t, R"("cat":"ctrl")", R"("cat":"log")", "", true)},
       {"no hedge dispatch instants", unhedged},
       {"hedge copy without an instant",
        mutated(t, R"("job":)", R"("job":1,"x":)", R"("name":"hedge")", true)},
       {"2+ hedge copies", mutated(t, copy_end, R"("name":"cgi-hedge",)"
                                                R"("cat":"request","ph":"b")")},
       {"hedge copy never ended",
        mutated(t, copy_end, R"("name":"cgi-hedgx","cat":"request","ph":"e")")},
       {"both sides of the race cancelled", both},
       {"cancelled but never hedged",
        mutated(t, R"("args":{)", R"("args":{"cancelled":1,)",
                R"("name":"file","cat":"request","ph":"e")")},
       {"no flow events", R"({"traceEvents": [{"name": "n", "ph": "M",)"
                          R"( "pid": 0}]})"},
       {"json: ", t.substr(0, t.size() / 2)},  // truncated
       {"json: ", "not json"},
       {"nesting deeper than 64 levels", std::string(100000, '[')}},
      [](const std::string& text) { return check_trace(text, kEverything); });
  // Without --spans an open flow is counted, not refused; without --hedges
  // nothing asks for hedge instants.
  EXPECT_EQ(check_trace(open).violation + check_trace(unhedged).violation, "");
  EXPECT_EQ(check_trace(open).open_flows, 1u);

  expect_each_refused(
      p,
      {{"header is not", mutated(p, "t_s,", "time,")},
       {"row 2 has 5 fields", mutated(p, "\n0.5,0,", "\n0.5,0,x,")},
       {"row 2: non-numeric t_s 0.5s", mutated(p, "\n0.5,", "\n0.5s,")},
       {"row 2: non-numeric node x", mutated(p, "\n0.5,0,", "\n0.5,x,")},
       {"non-numeric value high", p + "3,0,cpu_idle_ratio,high\n"},
       {"no samples", "t_s,node,metric,value\n"},
       {"missing metrics [theta_limit]", mutated(p, "theta_", "z", "", true)},
       {"missing metrics [net_sent]", mutated(p, "net_sent", "z", "", true)},
       {"missing metrics [ctrl_m]", mutated(p, ",ctrl_m,", ",z,", "", true)},
       {"row 2 has 3 fields", p.substr(0, 40)},  // truncated
       {"header is not", "not csv"}},
      [](const std::string& text) { return check_probes(text, kEverything); });

  expect_each_refused(
      x,
      {{"\"exemplars\" array", mutated(x, "\"exemplars\"", "\"worst\"")},
       {"bad k -1", mutated(x, R"("k": 3)", R"("k": -1)")},
       {"exemplar 0: missing 'attempts'", mutated(x, "attempts", "tries")},
       {"bad outcome \"done\"", mutated(x, "\"completed\"", "\"done\"")},
       {"hops, net] != ledger phases", mutated(x, "\"hop\"", "\"hops\"")},
       {"ledger fields must be integer nanoseconds",
        mutated(x, R"("admission": 0,)", R"("admission": 0.0,)")},
       {"end before arrival",
        mutated(x, R"("end_ns":)", R"("end_ns": 0, "x":)")},
       {"closure violated: sum(phases)=",
        mutated(x, R"("admission": 0)", R"("admission": 1)")},
       {"bad class 1", mutated(x, R"("class":)", R"("class": 1, "x":)")},
       {"exemplar 1: stretch not worst-first within class",
        mutated(x, R"("stretch":)", R"("stretch": 0.5, "x":)")},
       {"exemplar 0: empty span tree",
        mutated(x, R"("spans": [)", R"("spans": [], "x": [)")},
       {"span 0: bad bounds",
        mutated(x, R"("end_ns":)", R"("end_ns": 0.5, "x":)", "spans")},
       {"span 1: parent 1 does not precede it",
        mutated(x, R"("parent": 0)", R"("parent": 1)", R"("id": 1,)")},
       {"span 1: outside parent 0",
        mutated(x, R"("start_ns":)", R"("start_ns": 0, "x":)", R"("id": 1,)")},
       {"2 root spans",
        mutated(x, R"("parent": 0)", R"("parent": -1)", R"("id": 1,)")},
       {"json: ", x.substr(0, x.size() / 2)},  // truncated
       {"json: ", "not json"},
       {"nesting deeper than 64 levels", std::string(100000, '[')}},
      check_exemplars);
}

// --- structured log ---

TEST(ObsLog, LevelGatesAndWriterCaptures) {
  std::vector<std::string> captured;
  obs::set_log_writer([&](obs::LogLevel, const char* subsystem,
                          const std::string& message) {
    captured.push_back(std::string(subsystem) + ": " + message);
  });
  obs::set_log_level(obs::LogLevel::kOff);
  obs::logf(obs::LogLevel::kWarn, "test", "dropped %d", 1);
  EXPECT_TRUE(captured.empty());
  obs::set_log_level(obs::LogLevel::kInfo);
  obs::logf(obs::LogLevel::kWarn, "test", "kept %d", 2);
  obs::logf(obs::LogLevel::kInfo, "test", "kept %d", 3);
  obs::logf(obs::LogLevel::kDebug, "test", "dropped %d", 4);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "test: kept 2");
  EXPECT_EQ(captured[1], "test: kept 3");
  obs::set_log_writer(nullptr);
  obs::set_log_level(obs::LogLevel::kOff);
}

TEST(ObsLog, ParseLevels) {
  EXPECT_EQ(obs::parse_log_level("off"), obs::LogLevel::kOff);
  EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("debug"), obs::LogLevel::kDebug);
  EXPECT_EQ(obs::parse_log_level("2"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("bogus"), obs::LogLevel::kOff);
}

}  // namespace
}  // namespace wsched
