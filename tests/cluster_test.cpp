// Integration tests: full trace-driven cluster runs. These validate the
// scientific core — determinism, sanity of the stretch metric, agreement
// with the analytic model on model-matching workloads, and the paper's
// qualitative orderings between scheduler variants.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "check/runner.hpp"
#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "harness/artifacts.hpp"
#include "harness/sweep.hpp"
#include "model/optimize.hpp"
#include "trace/generator.hpp"
#include "trace/profile.hpp"
#include "trace/source.hpp"

namespace wsched::core {
namespace {

ExperimentSpec small_spec(SchedulerKind kind, std::uint64_t seed = 5) {
  ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 8;
  spec.lambda = 300;
  spec.r = 1.0 / 40.0;
  spec.duration_s = 6.0;
  spec.warmup_s = 1.5;
  spec.kind = kind;
  spec.seed = seed;
  return spec;
}

TEST(Cluster, EmptyTraceIsNoop) {
  ClusterConfig config;
  config.p = 2;
  config.m = 1;
  ClusterSim cluster(config, make_flat());
  const RunResult result = cluster.run(trace::Trace{});
  EXPECT_EQ(result.metrics.completed, 0u);
  EXPECT_EQ(result.events, 0u);
}

TEST(Cluster, InvalidConfigThrows) {
  ClusterConfig config;
  config.p = 0;
  EXPECT_THROW(ClusterSim(config, make_flat()), std::invalid_argument);
  config.p = 4;
  config.m = 5;
  EXPECT_THROW(ClusterSim(config, make_flat()), std::invalid_argument);
  config.m = 1;
  EXPECT_THROW(ClusterSim(config, nullptr), std::invalid_argument);
  config.node_params.resize(3);
  EXPECT_THROW(ClusterSim(config, make_flat()), std::invalid_argument);
}

TEST(Cluster, AllRequestsComplete) {
  const ExperimentResult result = run_experiment(small_spec(SchedulerKind::kMs));
  EXPECT_EQ(result.run.completed, result.run.submitted);
  EXPECT_GT(result.run.submitted, 1000u);
}

TEST(Cluster, StretchAtLeastOne) {
  for (const SchedulerKind kind :
       {SchedulerKind::kFlat, SchedulerKind::kMs, SchedulerKind::kMsNr,
        SchedulerKind::kMs1}) {
    const ExperimentResult result = run_experiment(small_spec(kind));
    EXPECT_GE(result.run.metrics.stretch, 1.0) << result.scheduler;
    EXPECT_GE(result.run.metrics.stretch_static, 1.0) << result.scheduler;
    EXPECT_GE(result.run.metrics.stretch_dynamic, 1.0) << result.scheduler;
  }
}

TEST(Cluster, DeterministicAcrossRuns) {
  const ExperimentResult a = run_experiment(small_spec(SchedulerKind::kMs));
  const ExperimentResult b = run_experiment(small_spec(SchedulerKind::kMs));
  EXPECT_DOUBLE_EQ(a.run.metrics.stretch, b.run.metrics.stretch);
  EXPECT_DOUBLE_EQ(a.run.metrics.mean_response_s,
                   b.run.metrics.mean_response_s);
  EXPECT_EQ(a.run.events, b.run.events);
}

TEST(Cluster, SeedChangesOutcomeSlightly) {
  const ExperimentResult a = run_experiment(small_spec(SchedulerKind::kMs, 5));
  const ExperimentResult b = run_experiment(small_spec(SchedulerKind::kMs, 6));
  EXPECT_NE(a.run.metrics.stretch, b.run.metrics.stretch);
  // ...but not qualitatively: same workload, same configuration.
  EXPECT_NEAR(a.run.metrics.stretch, b.run.metrics.stretch,
              0.5 * a.run.metrics.stretch);
}

TEST(Cluster, UtilizationMatchesOfferedLoad) {
  // Mean CPU+disk utilization should approximate the analytic offered load
  // per node (service demands are conserved by the node model).
  const ExperimentSpec spec = small_spec(SchedulerKind::kFlat);
  const ExperimentResult result = run_experiment(spec);
  const model::Workload w = analytic_workload(spec);
  const double offered_per_node = w.offered_load() / w.p;
  const double measured = result.run.mean_cpu_utilization +
                          result.run.mean_disk_utilization;
  EXPECT_NEAR(measured, offered_per_node, 0.30 * offered_per_node + 0.02);
}

TEST(Cluster, FlatStretchTracksAnalyticModel) {
  // On a model-matching workload (Poisson arrivals, exponential demands)
  // the simulated flat stretch should land near 1/(1-u). OS overheads make
  // the simulator slightly pessimistic; accept a generous band.
  ExperimentSpec spec = small_spec(SchedulerKind::kFlat);
  spec.lambda = 400;  // u ~ 0.62
  const ExperimentResult result = run_experiment(spec);
  const auto sf = model::flat_stretch(analytic_workload(spec));
  ASSERT_TRUE(sf.has_value());
  EXPECT_GT(result.run.metrics.stretch, 0.8 * *sf);
  EXPECT_LT(result.run.metrics.stretch, 2.5 * *sf);
}

TEST(Cluster, MsBeatsNoReservationUnderLoad) {
  // The paper's headline: reservation is the biggest win. Use a load high
  // enough that unreserved masters drown in CGI.
  ExperimentSpec spec = small_spec(SchedulerKind::kMs);
  spec.lambda = 420;
  const ExperimentResult ms = run_experiment(spec);
  spec.kind = SchedulerKind::kMsNr;
  const ExperimentResult nr = run_experiment(spec);
  EXPECT_GT(improvement(ms, nr), -0.05)
      << "M/S must not lose to M/S-nr beyond noise";
}

TEST(Cluster, MsBeatsFlatOnCgiHeavyWorkload) {
  // Note: the paper itself observes that M/S does not dominate flat at
  // every operating point; this configuration (16 nodes, ~60% utilization,
  // KSU mix) is solidly inside the regime where it should win.
  ExperimentSpec spec = small_spec(SchedulerKind::kMs, 42);
  spec.p = 16;
  spec.lambda = 600;
  spec.duration_s = 8.0;
  spec.warmup_s = 2.0;
  const ExperimentResult ms = run_experiment(spec);
  spec.kind = SchedulerKind::kFlat;
  const ExperimentResult flat = run_experiment(spec);
  EXPECT_GT(improvement(ms, flat), 0.03);
}

TEST(Cluster, StaticRequestsShieldedByMs) {
  // Separation of concerns: static stretch under M/S stays below static
  // stretch under flat (where file fetches queue behind CGI).
  ExperimentSpec spec = small_spec(SchedulerKind::kMs);
  spec.lambda = 400;
  const ExperimentResult ms = run_experiment(spec);
  spec.kind = SchedulerKind::kFlat;
  const ExperimentResult flat = run_experiment(spec);
  EXPECT_LT(ms.run.metrics.stretch_static, flat.run.metrics.stretch_static);
}

TEST(Cluster, MastersFromTheoremAreReasonable) {
  const ExperimentSpec spec = small_spec(SchedulerKind::kMs);
  const model::Workload w = analytic_workload(spec);
  const int m = masters_from_theorem(w);
  EXPECT_GE(m, 1);
  EXPECT_LT(m, spec.p);
  // Theorem 1's validity condition m >= r p/(a+r).
  EXPECT_GE(m, static_cast<int>(w.r * w.p / (w.a + w.r)) - 1);
}

TEST(Cluster, ReservationStateConvergesNearTheory) {
  ExperimentSpec spec = small_spec(SchedulerKind::kMs);
  spec.duration_s = 10.0;
  const ExperimentResult result = run_experiment(spec);
  const model::Workload w = analytic_workload(spec);
  // a_hat tracks the workload's arrival mix.
  EXPECT_NEAR(result.run.a_hat, w.a, 0.4 * w.a);
  // theta'_2 stays within its mathematical range.
  EXPECT_GE(result.run.theta_limit, 0.0);
  EXPECT_LE(result.run.theta_limit,
            static_cast<double>(result.m_used) / spec.p + 1e-9);
}

TEST(Cluster, RemoteLatencyVisibleInDynamicResponses) {
  // With all dynamic work executed remotely (M/S' with k slaves disjoint
  // from most receivers), responses include the 1ms dispatch latency; the
  // run must still complete and stay sane.
  ExperimentSpec spec = small_spec(SchedulerKind::kMsPrime);
  const ExperimentResult result = run_experiment(spec);
  EXPECT_EQ(result.run.completed, result.run.submitted);
  EXPECT_GE(result.run.metrics.stretch_dynamic, 1.0);
  EXPECT_GE(result.k_used, 1);
}

TEST(Cluster, HeterogeneousNodesSupported) {
  // The paper's future-work extension: per-node speeds. Faster slaves
  // should reduce the dynamic stretch relative to uniformly slow slaves.
  ExperimentSpec spec = small_spec(SchedulerKind::kMs);
  ExperimentResult uniform = run_experiment(spec);

  ClusterConfig config;
  config.p = spec.p;
  config.m = uniform.m_used;
  config.seed = spec.seed;
  config.warmup = from_seconds(spec.warmup_s);
  config.reservation.initial_r = spec.r;
  config.reservation.initial_a = analytic_workload(spec).a;
  config.initial_dynamic_demand_s = 1.0 / (spec.r * spec.mu_h);
  config.node_params.assign(static_cast<std::size_t>(spec.p),
                            sim::NodeParams{});
  for (std::size_t i = static_cast<std::size_t>(uniform.m_used);
       i < config.node_params.size(); ++i)
    config.node_params[i].cpu_speed = 2.0;

  trace::GeneratorConfig gen;
  gen.profile = spec.profile;
  gen.lambda = spec.lambda;
  gen.duration_s = spec.duration_s;
  gen.r = spec.r;
  gen.seed = spec.seed;
  ClusterSim cluster(config, make_ms());
  const RunResult fast = cluster.run(trace::generate(gen));
  EXPECT_LT(fast.metrics.stretch_dynamic,
            uniform.run.metrics.stretch_dynamic);
}

TEST(Cluster, EventCountsScaleWithTraffic) {
  ExperimentSpec spec = small_spec(SchedulerKind::kFlat);
  spec.duration_s = 3.0;
  const ExperimentResult small = run_experiment(spec);
  spec.lambda *= 2;
  const ExperimentResult big = run_experiment(spec);
  EXPECT_GT(big.run.events, small.run.events);
}

// --- Hedged dispatch ---

ExperimentSpec hedge_spec(std::uint64_t seed = 5) {
  ExperimentSpec spec = small_spec(SchedulerKind::kMs, seed);
  // Fail-slow churn supplies the limping nodes the hedges rescue from.
  spec.fault.enabled = true;
  spec.fault.degrade_mttf_s = 2.0;
  spec.fault.degrade_mttr_s = 1.0;
  spec.fault.degrade_cpu_factor = 0.1;
  spec.fault.stall_period_s = 0.5;
  spec.hedge.enabled = true;
  return spec;
}

TEST(Hedge, WinLoseCancelAccountingCloses) {
  const ExperimentResult result = run_experiment(hedge_spec());
  const RunResult& r = result.run;
  ASSERT_TRUE(r.hedging_enabled);
  EXPECT_GT(r.hedges_launched, 0u);
  EXPECT_GT(r.hedge_wins, 0u);
  EXPECT_GT(r.hedge_cancellations, 0u);
  // Every launched hedge resolves exactly one way: its request settles
  // (one side wins, the loser is cancelled or already finished) or the
  // copy evaporated with its node.
  EXPECT_LE(r.hedge_wins, r.hedges_launched);
  EXPECT_LE(r.hedge_cancellations, r.hedges_launched);
  // The ledger closes exactly: a hedge winner counts once, a cancelled
  // loser never counts, and no request vanishes.
  EXPECT_EQ(r.completed + r.timeouts + r.shed + r.abandoned, r.submitted);
}

TEST(Hedge, DeterministicAcrossRuns) {
  const ExperimentResult a = run_experiment(hedge_spec());
  const ExperimentResult b = run_experiment(hedge_spec());
  EXPECT_EQ(a.run.hedges_launched, b.run.hedges_launched);
  EXPECT_EQ(a.run.hedge_wins, b.run.hedge_wins);
  EXPECT_EQ(a.run.hedge_cancellations, b.run.hedge_cancellations);
  EXPECT_EQ(a.run.events, b.run.events);
  EXPECT_DOUBLE_EQ(a.run.metrics.stretch, b.run.metrics.stretch);
}

TEST(Hedge, NeverFiringHedgeLeavesMetricsIdentical) {
  // A hedge delay no request can outlive arms timers but never launches:
  // the run's routing, draws, and metrics must match the hedging-off run
  // exactly (the off-by-default contract, probed from the enabled side).
  ExperimentSpec off = small_spec(SchedulerKind::kMs);
  ExperimentSpec armed = off;
  armed.hedge.enabled = true;
  armed.hedge.delay_s = 1e6;
  const ExperimentResult a = run_experiment(off);
  const ExperimentResult b = run_experiment(armed);
  EXPECT_EQ(b.run.hedges_launched, 0u);
  EXPECT_EQ(a.run.metrics.completed, b.run.metrics.completed);
  EXPECT_DOUBLE_EQ(a.run.metrics.stretch, b.run.metrics.stretch);
  EXPECT_DOUBLE_EQ(a.run.metrics.p95_response_s,
                   b.run.metrics.p95_response_s);
}

TEST(Hedge, NoDoubleCountingUnderLossyNetwork) {
  // The hostile composition: hedge copies racing primaries over a lossy
  // interconnect with limping nodes. Wire-lost requests surface as
  // timeouts; nothing is ever counted twice or lost.
  ExperimentSpec spec = hedge_spec(11);
  spec.net.enabled = true;
  spec.net.loss = 0.05;
  const ExperimentResult result = run_experiment(spec);
  const RunResult& r = result.run;
  EXPECT_GT(r.hedges_launched, 0u);
  EXPECT_EQ(r.completed + r.timeouts + r.shed + r.abandoned, r.submitted);
}

TEST(Hedge, LedgerClosesWhenLoserCrashesDuringPartition) {
  // The hostile composition pinned by the chaos audit: hedging armed over
  // a cluster where nodes crash while a partition is open. The hedge
  // loser can die before the winner's cancel lands (Node::cancel on a
  // dead node must report no removal), copies can evaporate with their
  // node while the primary sits on the wrong side of the cut, and the
  // wire can eat either side's dispatch. Whatever the interleaving, each
  // request settles exactly once and the ledger closes to the request.
  auto spec = [] {
    ExperimentSpec s = hedge_spec(7);
    s.duration_s = 8.0;
    s.fault.mttf_s = 4.0;  // aggressive churn: copy-holders die mid-flight
    s.fault.mttr_s = 1.5;
    s.net.enabled = true;
    s.net.loss = 0.02;
    net::PartitionSpec window;
    window.from = from_seconds(2.0);
    window.until = from_seconds(5.0);
    window.groups = {{0, 2, 3, 4, 5}, {1, 6, 7}};
    s.net.partitions.push_back(window);
    return s;
  };
  const ExperimentResult result = run_experiment(spec());
  const RunResult& r = result.run;
  // The scenario actually composed: hedges fired, nodes crashed, the
  // partition opened.
  EXPECT_GT(r.hedges_launched, 0u);
  EXPECT_GT(r.node_crashes, 0u);
  EXPECT_GE(r.net_partitions, 1u);
  // A cancellation is only counted when it removed a live process; a
  // loser that crashed first must neither count nor double-settle.
  EXPECT_LE(r.hedge_cancellations, r.hedges_launched);
  EXPECT_LE(r.hedge_wins, r.hedges_launched);
  EXPECT_EQ(r.completed + r.timeouts + r.shed + r.abandoned, r.submitted);
  // And the whole interleaving is reproducible bit-for-bit.
  const ExperimentResult again = run_experiment(spec());
  EXPECT_EQ(again.run.hedges_launched, r.hedges_launched);
  EXPECT_EQ(again.run.hedge_cancellations, r.hedge_cancellations);
  EXPECT_EQ(again.run.events, r.events);
}

TEST(Hedge, ReducesTailUnderLimpingNodes) {
  // The point of the whole mechanism: against the same limping cluster,
  // hedging must not make the tail worse — and with the watchdog it
  // should measurably shrink it. (The strong >= 50% recovery assertion
  // lives in bench/ext_gray.cpp where runs are long enough for a stable
  // p95; here a cheap sanity bound keeps the test fast.)
  ExperimentSpec undefended = hedge_spec(3);
  undefended.hedge.enabled = false;
  ExperimentSpec defended = hedge_spec(3);
  defended.slow_health.enabled = true;
  const ExperimentResult a = run_experiment(undefended);
  const ExperimentResult b = run_experiment(defended);
  EXPECT_LT(b.run.metrics.p95_stretch, a.run.metrics.p95_stretch);
}

TEST(Hedge, InvalidConfigThrows) {
  ExperimentSpec spec = small_spec(SchedulerKind::kMs);
  spec.hedge.enabled = true;
  spec.hedge.delay_s = -1.0;
  EXPECT_THROW(run_experiment(spec), std::invalid_argument);
  spec = small_spec(SchedulerKind::kMs);
  spec.hedge.enabled = true;
  spec.hedge.delay_factor = 0.0;
  EXPECT_THROW(run_experiment(spec), std::invalid_argument);
}

// --- Streamed replay ---

/// The chaos runner's canonical full-schema row hash of one result.
std::uint64_t row_hash(const ExperimentResult& result) {
  harness::ResultRow row;
  harness::append_metrics(row, result);
  harness::append_net_metrics(row, result);
  harness::append_ctrl_metrics(row, result);
  harness::append_gray_metrics(row, result);
  harness::append_span_metrics(row, result);
  return check::fnv1a(harness::csv_string({row}));
}

/// run_experiment streams the spec's records; replaying the materialized
/// trace through the same cluster must give the identical row.
void expect_stream_matches_materialized(const ExperimentSpec& spec) {
  const ExperimentResult streamed = run_experiment(spec);
  const trace::Trace trace = generate_trace(spec);
  trace::TraceCursor cursor(trace);
  const ExperimentResult materialized = run_experiment(spec, cursor);
  EXPECT_EQ(streamed.run.submitted, trace.size());
  EXPECT_EQ(streamed.run.events, materialized.run.events);
  EXPECT_EQ(row_hash(streamed), row_hash(materialized));
}

TEST(StreamedReplay, AllOffMatchesMaterializedTrace) {
  expect_stream_matches_materialized(small_spec(SchedulerKind::kMs));
}

TEST(StreamedReplay, EveryRuntimeLayerMatchesMaterializedTrace) {
  ExperimentSpec spec = hedge_spec(13);
  spec.fault.mttf_s = 20.0;
  spec.fault.mttr_s = 2.0;
  spec.slow_health.enabled = true;
  spec.net.enabled = true;
  spec.net.loss = 0.01;
  spec.overload.deadline.static_s = 2.0;
  spec.overload.deadline.dynamic_s = 5.0;
  spec.overload.breaker.enabled = true;
  spec.overload.breaker.queue_trip = 64.0;
  spec.ctrl.enabled = true;
  spec.obs.spans = true;
  spec.flip_at_s = 3.0;  // the flip splice streams too
  spec.flip_profile = trace::ucb_profile();
  const ExperimentResult result = run_experiment(spec);
  ASSERT_GT(result.run.hedges_launched, 0u);
  ASSERT_TRUE(result.spans.enabled);
  expect_stream_matches_materialized(spec);
}

TEST(StreamedReplay, HedgedCacheHitsMatchMaterializedTrace) {
  // A hedge copy re-routes the request as it arrived, before any cache-hit
  // demotion — the record the cluster keeps per unsettled request.
  ExperimentSpec spec = hedge_spec(17);
  spec.cgi_cache_entries = 256;
  spec.cgi_distinct_urls = 200;
  spec.hedge.hedge_static = true;
  spec.hedge.delay_s = 0.02;
  spec.fault.mttf_s = 10.0;
  spec.fault.mttr_s = 1.0;
  const ExperimentResult result = run_experiment(spec);
  ASSERT_GT(result.run.cache_hits, 0u);
  ASSERT_GT(result.run.hedges_launched, 0u);
  expect_stream_matches_materialized(spec);
}

TEST(StreamedReplay, SettlingInsideDeliveryDoesNotEndTheRunEarly) {
  // Every node dies for good at 1 s; once the outage is detected, each
  // arrival times out inside its own delivery (no redispatch allowed).
  // The run must still deliver every record: the next one is pulled
  // before the current request can settle, so `remaining` never reads
  // zero while records are left.
  ExperimentSpec spec = small_spec(SchedulerKind::kMs);
  spec.duration_s = 3.0;
  spec.fault.enabled = true;
  spec.fault.max_redispatch = 0;
  for (int node = 0; node < spec.p; ++node)
    spec.fault.script.push_back(
        {from_seconds(1.0), node, fault::FaultKind::kCrash, 1.0, 1.0});
  const ExperimentResult result = run_experiment(spec);
  const RunResult& r = result.run;
  EXPECT_EQ(r.submitted, generate_trace(spec).size());
  EXPECT_GT(r.timeouts, r.submitted / 4);
  EXPECT_EQ(r.completed + r.timeouts + r.shed + r.abandoned, r.submitted);
}

/// A source that never yields.
class EmptySource final : public trace::RecordSource {
 public:
  bool next(trace::TraceRecord&) override { return false; }
  std::size_t size_hint() const override { return 0; }
};

TEST(StreamedReplay, EmptyStreamReturnsDefaultResult) {
  ClusterConfig config;
  config.p = 4;
  config.m = 1;
  config.hedge.enabled = true;
  ClusterSim cluster(config, make_ms());
  EmptySource empty;
  const RunResult result = cluster.run(empty);
  EXPECT_EQ(result.submitted, 0u);
  EXPECT_EQ(result.completed, 0u);
  EXPECT_EQ(result.events, 0u);
  EXPECT_EQ(result.sim_seconds, 0.0);
  EXPECT_FALSE(result.hedging_enabled);
}

/// What the cluster had done when each record was pulled.
struct PullLog {
  Time routed_at = -1;  ///< simulated time of the latest route() call
  std::uint64_t routed = 0;
  std::vector<Time> arrivals;  ///< arrival of the i-th pulled record
  std::vector<Time> routed_at_pull;
  std::vector<std::uint64_t> routed_before_pull;
};

/// Counts pulls and, at each one, notes how far routing had progressed.
class CountingSource final : public trace::RecordSource {
 public:
  CountingSource(trace::RecordSource& inner, PullLog& log)
      : inner_(inner), log_(log) {}
  bool next(trace::TraceRecord& out) override {
    if (!inner_.next(out)) return false;
    log_.arrivals.push_back(out.arrival);
    log_.routed_at_pull.push_back(log_.routed_at);
    log_.routed_before_pull.push_back(log_.routed);
    return true;
  }
  std::size_t size_hint() const override { return inner_.size_hint(); }

 private:
  trace::RecordSource& inner_;
  PullLog& log_;
};

/// Flat dispatch that logs the simulated time of every route() call.
class LoggingDispatcher final : public Dispatcher {
 public:
  explicit LoggingDispatcher(PullLog& log) : log_(log) {}
  Decision route(const trace::TraceRecord& request,
                 ClusterView& view) override {
    log_.routed_at = view.now;
    ++log_.routed;
    return inner_->route(request, view);
  }
  std::string name() const override { return "logging-flat"; }

 private:
  PullLog& log_;
  std::unique_ptr<Dispatcher> inner_ = make_flat();
};

TEST(StreamedReplay, PullsOneRecordAheadOfTheClock) {
  ExperimentSpec spec = small_spec(SchedulerKind::kFlat);
  spec.duration_s = 2.0;
  PullLog log;
  spec.dispatcher_factory = [&log] {
    return std::make_unique<LoggingDispatcher>(log);
  };
  ReplayStream stream(spec);
  CountingSource counting(stream, log);
  const ExperimentResult result = run_experiment(spec, counting);
  const std::size_t pulled = log.arrivals.size();
  ASSERT_GT(pulled, 100u);
  EXPECT_EQ(result.run.submitted, pulled);
  EXPECT_EQ(log.routed, pulled);  // flat routes each request exactly once
  for (std::size_t i = 0; i < pulled; ++i) {
    // Record i (0-based) is pulled while record i-1 is being delivered:
    // records up to i-2 have been routed, so the clock has reached record
    // i-2's arrival and nothing past i-1 has been read.
    EXPECT_EQ(log.routed_before_pull[i], i < 1 ? 0 : i - 1) << i;
    if (i >= 2) {
      EXPECT_GE(log.routed_at_pull[i], log.arrivals[i - 2]) << i;
    }
  }
}

TEST(Improvement, Definition) {
  ExperimentResult a, b;
  a.run.metrics.stretch = 2.0;
  b.run.metrics.stretch = 3.0;
  EXPECT_NEAR(improvement(a, b), 0.5, 1e-12);
  EXPECT_NEAR(improvement(b, a), 2.0 / 3.0 - 1.0, 1e-12);
}

TEST(Improvement, DegenerateStretchesYieldZeroNotInfOrNan) {
  // A failure-mangled run can report zero or non-finite stretch; the
  // comparison must degrade to "no improvement", not emit inf/NaN.
  ExperimentResult zero, ok, nan, inf;
  zero.run.metrics.stretch = 0.0;
  ok.run.metrics.stretch = 2.0;
  nan.run.metrics.stretch = std::numeric_limits<double>::quiet_NaN();
  inf.run.metrics.stretch = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(improvement(zero, ok), 0.0);
  EXPECT_DOUBLE_EQ(improvement(ok, nan), 0.0);
  EXPECT_DOUBLE_EQ(improvement(nan, ok), 0.0);
  EXPECT_DOUBLE_EQ(improvement(inf, ok), 0.0);
  EXPECT_TRUE(std::isfinite(improvement(ok, inf)));
}

}  // namespace
}  // namespace wsched::core
