// Golden-artifact anchors for the hot-path engine rebuild: the refactor
// (event calendar, pooled processes, SoA load state, batched obs) promises
// byte-identical behavior, so these tests pin seed-era output hashes for
// one M/S grid point, one ctrl-enabled observability run and one hedged
// run over the CGI cache. Any change to event ordering, RNG draw sequence
// or artifact formatting trips them.
//
// To re-pin after an *intentional* semantic change, run with
// WSCHED_PRINT_GOLDEN=1 and copy the printed constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "harness/sweep.hpp"
#include "obs/counters.hpp"
#include "obs/decision_log.hpp"
#include "obs/probes.hpp"
#include "obs/trace.hpp"
#include "trace/profile.hpp"

namespace wsched {
namespace {

/// FNV-1a 64-bit over the serialized artifact bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

bool print_golden() {
  return std::getenv("WSCHED_PRINT_GOLDEN") != nullptr;
}

// Seed-era pinned values (p=8, lambda=300, ksu, seed=1234, 2s/0.5s).
constexpr double kGridStretch = 1.8589433084799023;
constexpr std::uint64_t kGridEvents = 3386;
constexpr std::uint64_t kGridTraceHash = 9404565998790318021ull;
constexpr std::uint64_t kGridDecisionsHash = 14219026472456607891ull;
constexpr std::uint64_t kGridProbesHash = 1344076430845906592ull;
constexpr double kCtrlStretch = 1.7674564679738916;
constexpr std::uint64_t kCtrlEvents = 3378;
constexpr std::uint64_t kCtrlTraceHash = 3963131497190702515ull;
constexpr std::uint64_t kCtrlDecisionsHash = 12732148973856617977ull;
// Hedged dispatch over the CGI cache under crash and fail-slow churn
// (same grid point). A hedge copy re-routes the request as it arrived,
// before any cache-hit demotion. Pinned from a replay that held the whole
// trace in memory, so a streamed replay that keeps the wrong per-request
// record routes some copy differently and trips the trace hash.
constexpr double kHedgeStretch = 19.437547233516611;
constexpr std::uint64_t kHedgeEvents = 3822;
constexpr std::uint64_t kHedgeTraceHash = 6873655822442740592ull;
// Counter snapshots and full-schema rows of three layer mixes (every
// runtime layer; ctrl autoscale alone; every layer off). The observed
// workload's pins see only the all-off counter set, so these are the
// anchor for the gated net/ctrl/slow_health/hedge groups.
constexpr std::uint64_t kStackCountersHash = 9230124440577741995ull;
constexpr std::uint64_t kStackRowHash = 10731167168819502033ull;
constexpr std::uint64_t kScaleCountersHash = 6323357843713175637ull;
constexpr std::uint64_t kScaleRowHash = 11424340580867695218ull;
constexpr std::uint64_t kPlainCountersHash = 5858756066287778889ull;
constexpr std::uint64_t kPlainRowHash = 6470876560783411680ull;

core::ExperimentSpec grid_point_spec() {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 8;
  spec.lambda = 300;
  spec.duration_s = 2.0;
  spec.warmup_s = 0.5;
  spec.seed = 1234;
  spec.kind = core::SchedulerKind::kMs;
  return spec;
}

TEST(GoldenArtifacts, MsGridPointIsBitStable) {
  obs::ChromeTraceSink sink;
  obs::DecisionLog decisions;
  obs::ProbeRecorder probes(from_seconds(0.5));
  core::ExperimentSpec spec = grid_point_spec();
  spec.observer.trace = &sink;
  spec.observer.decisions = &decisions;
  spec.observer.probes = &probes;
  const auto result = core::run_experiment(spec);

  std::ostringstream decision_csv;
  decisions.write_csv(decision_csv);
  std::ostringstream probe_csv;
  probes.write_csv(probe_csv);
  const std::uint64_t trace_hash = fnv1a(sink.str());
  const std::uint64_t decisions_hash = fnv1a(decision_csv.str());
  const std::uint64_t probes_hash = fnv1a(probe_csv.str());
  if (print_golden()) {
    std::printf("ms-grid: stretch=%.17g events=%llu trace=%llux "
                "decisions=%llux probes=%llux\n",
                result.run.metrics.stretch,
                static_cast<unsigned long long>(result.run.events),
                static_cast<unsigned long long>(trace_hash),
                static_cast<unsigned long long>(decisions_hash),
                static_cast<unsigned long long>(probes_hash));
  }
  EXPECT_DOUBLE_EQ(result.run.metrics.stretch, kGridStretch);
  EXPECT_EQ(result.run.events, kGridEvents);
  EXPECT_EQ(trace_hash, kGridTraceHash);
  EXPECT_EQ(decisions_hash, kGridDecisionsHash);
  EXPECT_EQ(probes_hash, kGridProbesHash);
}

TEST(GoldenArtifacts, CtrlEnabledRunIsBitStable) {
  obs::ChromeTraceSink sink;
  obs::DecisionLog decisions;
  core::ExperimentSpec spec = grid_point_spec();
  spec.ctrl.enabled = true;
  spec.observer.trace = &sink;
  spec.observer.decisions = &decisions;
  const auto result = core::run_experiment(spec);

  std::ostringstream decision_csv;
  decisions.write_csv(decision_csv);
  const std::uint64_t trace_hash = fnv1a(sink.str());
  const std::uint64_t decisions_hash = fnv1a(decision_csv.str());
  if (print_golden()) {
    std::printf("ctrl-run: stretch=%.17g events=%llu trace=%llux "
                "decisions=%llux\n",
                result.run.metrics.stretch,
                static_cast<unsigned long long>(result.run.events),
                static_cast<unsigned long long>(trace_hash),
                static_cast<unsigned long long>(decisions_hash));
  }
  EXPECT_DOUBLE_EQ(result.run.metrics.stretch, kCtrlStretch);
  EXPECT_EQ(result.run.events, kCtrlEvents);
  EXPECT_EQ(trace_hash, kCtrlTraceHash);
  EXPECT_EQ(decisions_hash, kCtrlDecisionsHash);
}

TEST(GoldenArtifacts, HedgedCacheRunIsBitStable) {
  obs::ChromeTraceSink sink;
  core::ExperimentSpec spec = grid_point_spec();
  spec.fault.enabled = true;
  spec.fault.mttf_s = 4.0;
  spec.fault.mttr_s = 0.5;
  spec.fault.degrade_mttf_s = 1.0;
  spec.fault.degrade_mttr_s = 0.5;
  spec.fault.degrade_cpu_factor = 0.1;
  spec.hedge.enabled = true;
  spec.hedge.hedge_static = true;
  spec.hedge.delay_s = 0.02;
  spec.cgi_cache_entries = 256;
  spec.cgi_distinct_urls = 200;
  spec.observer.trace = &sink;
  const auto result = core::run_experiment(spec);

  const std::uint64_t trace_hash = fnv1a(sink.str());
  if (print_golden()) {
    std::printf("hedge-cache: stretch=%.17g events=%llu trace=%llux\n",
                result.run.metrics.stretch,
                static_cast<unsigned long long>(result.run.events),
                static_cast<unsigned long long>(trace_hash));
  }
  ASSERT_GT(result.run.hedges_launched, 0u);
  ASSERT_GT(result.run.cache_hits, 0u);
  EXPECT_DOUBLE_EQ(result.run.metrics.stretch, kHedgeStretch);
  EXPECT_EQ(result.run.events, kHedgeEvents);
  EXPECT_EQ(trace_hash, kHedgeTraceHash);
}

/// The counter registry of one run as "name=value" lines, in name order.
std::string counter_lines(const obs::CounterRegistry& registry) {
  std::string out;
  for (const auto& [name, value] : registry.snapshot())
    out += name + '=' + std::to_string(value) + '\n';
  return out;
}

/// One run with a counter registry attached: the snapshot lines and the
/// full-schema row.
struct CounterRun {
  explicit CounterRun(core::ExperimentSpec spec) {
    spec.observer.counters = &registry;
    const auto result = core::run_experiment(spec);
    lines = counter_lines(registry);
    row = harness::csv_string({harness::full_row(result)});
  }
  obs::CounterRegistry registry;
  std::string lines;
  std::string row;
};

bool has_prefix(const obs::CounterRegistry& registry, const char* prefix) {
  for (const auto& [name, value] : registry.snapshot())
    if (name.rfind(prefix, 0) == 0) return true;
  return false;
}

bool any_nonzero(const obs::CounterRegistry& registry, const char* prefix) {
  for (const auto& [name, value] : registry.snapshot())
    if (name.rfind(prefix, 0) == 0 && value > 0) return true;
  return false;
}

TEST(GoldenArtifacts, CounterSnapshotIsBitStable) {
  // (a) Every runtime layer of the faulted-stack workload (net, fault with
  // fail-slow episodes, watchdog, hedging, overload, ctrl, spans), plus the
  // CGI cache and queue-depth shedding. Scripted crashes and a partition
  // make the failover and quorum counters move inside the short run.
  core::ExperimentSpec stack = grid_point_spec();
  stack.lambda = 600;
  stack.net.enabled = true;
  stack.net.loss = 0.01;
  stack.net.stale_max_age_s = 0.05;
  stack.net.partitions.push_back(net::parse_partition_spec("0.8:1.4:0-2|3-7"));
  stack.fault.enabled = true;
  stack.fault.mttf_s = 120.0;
  stack.fault.mttr_s = 5.0;
  stack.fault.degrade_mttf_s = 1.0;
  stack.fault.degrade_mttr_s = 0.5;
  stack.fault.degrade_cpu_factor = 0.1;
  stack.fault.stall_period_s = 1.0;
  stack.fault.script.push_back(
      {from_seconds(1.2), 0, fault::FaultKind::kCrash, 1.0, 1.0});
  stack.fault.script.push_back(
      {from_seconds(1.0), 5, fault::FaultKind::kCrash, 1.0, 1.0});
  stack.slow_health.enabled = true;
  stack.hedge.enabled = true;
  stack.hedge.delay_s = 0.02;
  stack.overload.deadline.static_s = 0.5;
  stack.overload.deadline.dynamic_s = 1.0;
  stack.overload.breaker.enabled = true;
  stack.overload.breaker.queue_trip = 4.0;
  stack.overload.breaker.queue_trip_rounds = 2;
  stack.overload.saturation.enabled = true;
  stack.overload.saturation.enter_queue = 2.0;
  stack.overload.saturation.exit_queue = 1.0;
  stack.overload.saturation.min_dwell_s = 0.2;
  stack.overload.admission.policy = overload::AdmissionPolicy::kQueueDepth;
  stack.overload.admission.max_queue = 2.0;
  stack.ctrl.enabled = true;
  stack.obs.spans = true;
  stack.cgi_cache_entries = 256;
  stack.cgi_distinct_urls = 200;

  // (b) The control plane's autoscaler and master retargeting alone.
  core::ExperimentSpec scale = grid_point_spec();
  scale.ctrl.enabled = true;
  scale.ctrl.autoscale = true;
  scale.ctrl.retarget_masters = true;
  scale.ctrl.dwell_s = 0.25;
  scale.ctrl.scale_down_util = 0.6;

  // (c) Every layer off.
  const core::ExperimentSpec plain = grid_point_spec();

  const CounterRun a(stack), b(scale), c(plain);
  const std::uint64_t hashes[6] = {fnv1a(a.lines), fnv1a(a.row),
                                   fnv1a(b.lines), fnv1a(b.row),
                                   fnv1a(c.lines), fnv1a(c.row)};
  if (print_golden()) {
    std::printf("counters: stack=%llu/%llu scale=%llu/%llu plain=%llu/%llu\n",
                static_cast<unsigned long long>(hashes[0]),
                static_cast<unsigned long long>(hashes[1]),
                static_cast<unsigned long long>(hashes[2]),
                static_cast<unsigned long long>(hashes[3]),
                static_cast<unsigned long long>(hashes[4]),
                static_cast<unsigned long long>(hashes[5]));
    std::printf("%s--\n%s--\n%s", a.lines.c_str(), b.lines.c_str(),
                c.lines.c_str());
  }

  // Ungated groups are present in every run, even at zero.
  for (const CounterRun* run : {&a, &b, &c})
    for (const char* group : {"dispatch.", "cache.", "fault.", "overload.",
                              "reservation.", "cpu.", "disk."})
      EXPECT_TRUE(has_prefix(run->registry, group)) << group;
  // Gated groups appear exactly when their layer is on.
  EXPECT_TRUE(has_prefix(a.registry, "net."));
  EXPECT_TRUE(has_prefix(a.registry, "ctrl."));
  EXPECT_TRUE(has_prefix(a.registry, "slow_health."));
  EXPECT_TRUE(has_prefix(a.registry, "hedge."));
  EXPECT_FALSE(has_prefix(b.registry, "net."));
  EXPECT_TRUE(has_prefix(b.registry, "ctrl."));
  EXPECT_FALSE(has_prefix(b.registry, "slow_health."));
  EXPECT_FALSE(has_prefix(b.registry, "hedge."));
  for (const char* group : {"net.", "ctrl.", "slow_health.", "hedge."})
    EXPECT_FALSE(has_prefix(c.registry, group)) << group;
  // Every group moves in (a) or (b), so the pins cover live values.
  for (const char* group : {"dispatch.", "cache.", "fault.", "overload.",
                            "net.", "ctrl.", "slow_health.", "hedge."})
    EXPECT_TRUE(any_nonzero(a.registry, group) ||
                any_nonzero(b.registry, group))
        << group;
  EXPECT_TRUE(any_nonzero(b.registry, "ctrl.scale_"));

  EXPECT_EQ(hashes[0], kStackCountersHash);
  EXPECT_EQ(hashes[1], kStackRowHash);
  EXPECT_EQ(hashes[2], kScaleCountersHash);
  EXPECT_EQ(hashes[3], kScaleRowHash);
  EXPECT_EQ(hashes[4], kPlainCountersHash);
  EXPECT_EQ(hashes[5], kPlainRowHash);
}

}  // namespace
}  // namespace wsched
