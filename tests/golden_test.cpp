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
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

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
// Traced landing-path runs (LandingPathsAreBitStable, runs a-g): event
// count, trace FNV and full-row FNV of each.
struct LandingPin {
  std::uint64_t events;
  std::uint64_t trace_hash;
  std::uint64_t row_hash;
};
constexpr LandingPin kLandingPins[] = {
    {7863, 9701064943249501588ull, 13149018909105229894ull},
    {4004, 15516731624707535850ull, 6901042746502898782ull},
    {4206, 4103254027457893042ull, 7475741423459496463ull},
    {7609, 6341351941522315454ull, 11666964639944757967ull},
    {4091, 8949072735243979859ull, 7203557385480969016ull},
    {4796, 2162689349120751920ull, 3249138973088111914ull},
    {3488, 17661856951614666375ull, 263523149560331681ull},
};
// Traced health-gate runs (HealthGatesAreBitStable, runs a-e), same shape.
constexpr LandingPin kHealthGatePins[] = {
    {3516, 5864165340606032307ull, 14691497354694970593ull},
    {3492, 17460177457110346132ull, 11972417979320310788ull},
    {4052, 10566914124409862027ull, 5814861484943709771ull},
    {6479, 422952018983037680ull, 9382685218428817338ull},
    {3398, 12458830620442815250ull, 1901632307302559970ull},
};

// Traced RPC-path runs (RpcPathsAreBitStable, runs a-d), same shape.
constexpr LandingPin kRpcPins[] = {
    {4511, 3126253363457922847ull, 11999419353763943151ull},
    {4115, 6779712732477646398ull, 10305065850068357753ull},
    {4036, 4193142308870762853ull, 6479123846668983212ull},
    {4023, 13003931971990858312ull, 4257505118067189736ull},
};

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

/// One traced run: its event count and the hashes of the Chrome trace and
/// the full-schema row.
struct LandingRun {
  explicit LandingRun(core::ExperimentSpec spec) {
    obs::ChromeTraceSink sink;
    spec.observer.trace = &sink;
    // A landing path that loses a request keeps the run (and the trace)
    // growing forever; the engine guard turns that into a prompt failure.
    spec.max_events = 100000;
    result = core::run_experiment(spec);
    pin = {result.run.events, fnv1a(sink.str()),
           fnv1a(harness::csv_string({harness::full_row(result)}))};
  }
  core::ExperimentResult result;
  LandingPin pin{};
};

TEST(GoldenArtifacts, LandingPathsAreBitStable) {
  // Ways a routed job reaches (or misses) its target node that the pins
  // above do not cover:
  // (a) overload alone, net off: remote dispatches take the flat hop
  //     through the overload layer's landing checks, with shedding,
  //     client retries and an abandonment;
  // (b) autoscale over the net model: dispatches cross the wire while
  //     drained jobs migrate;
  // (c) net without the fault layer: a dispatch lost on the wire after its
  //     last RPC attempt times out;
  // (d) as (a) with jitter-free client retries and a dynamic deadline just
  //     past a retry boundary, so clients abandon jobs inside the hop;
  // (e) as (b) with a 10 ms wire and a fast, twitchy control loop, so
  //     dispatches are delivered to nodes powered down in flight;
  // (f) crashes with hedging and no failover retries: a stranded primary
  //     times out while its copy runs elsewhere, so the copy's cancel and
  //     the timeout land in the trace in a fixed order;
  // (g) crashes with circuit breakers, net off: a job that lands on a
  //     crashed but undetected node counts against its breaker before it
  //     fails over.
  core::ExperimentSpec shed = grid_point_spec();
  shed.lambda = 600;
  shed.overload.deadline.static_s = 0.5;
  shed.overload.deadline.dynamic_s = 1.0;
  shed.overload.admission.policy = overload::AdmissionPolicy::kQueueDepth;
  shed.overload.admission.max_queue = 2.0;

  core::ExperimentSpec scale = grid_point_spec();
  scale.net.enabled = true;
  scale.net.loss = 0.01;
  scale.ctrl.enabled = true;
  scale.ctrl.autoscale = true;
  scale.ctrl.retarget_masters = true;
  scale.ctrl.dwell_s = 0.25;
  scale.ctrl.scale_down_util = 0.6;

  core::ExperimentSpec lossy = grid_point_spec();
  lossy.net.enabled = true;
  lossy.net.loss = 0.3;

  core::ExperimentSpec mid_hop = shed;
  mid_hop.overload.deadline.dynamic_s = 0.3505;
  mid_hop.overload.retry_backoff.jitter = 0.0;

  core::ExperimentSpec powered_down = scale;
  powered_down.net.latency_base_s = 0.01;
  powered_down.ctrl.interval_s = 0.1;
  powered_down.ctrl.dwell_s = 0.1;
  powered_down.ctrl.scale_up_util = 0.65;

  core::ExperimentSpec hedged_crash = grid_point_spec();
  hedged_crash.fault.enabled = true;
  hedged_crash.fault.mttf_s = 2.0;
  hedged_crash.fault.mttr_s = 0.5;
  hedged_crash.fault.max_redispatch = 0;
  hedged_crash.hedge.enabled = true;
  hedged_crash.hedge.hedge_static = true;
  hedged_crash.hedge.delay_s = 0.02;

  core::ExperimentSpec breakers = grid_point_spec();
  breakers.fault.enabled = true;
  breakers.fault.mttf_s = 2.0;
  breakers.fault.mttr_s = 0.5;
  breakers.fault.max_redispatch = 8;
  breakers.overload.breaker.enabled = true;

  const LandingRun runs[] = {
      LandingRun(shed),         LandingRun(scale),   LandingRun(lossy),
      LandingRun(mid_hop),      LandingRun(powered_down),
      LandingRun(hedged_crash), LandingRun(breakers)};
  if (print_golden()) {
    for (const LandingRun& run : runs)
      std::printf("landing: {%llu, %lluull, %lluull}, shed=%llu "
                  "abandoned=%llu retries=%llu migrations=%llu "
                  "scale_downs=%llu timeouts=%llu\n",
                  static_cast<unsigned long long>(run.pin.events),
                  static_cast<unsigned long long>(run.pin.trace_hash),
                  static_cast<unsigned long long>(run.pin.row_hash),
                  static_cast<unsigned long long>(run.result.run.shed),
                  static_cast<unsigned long long>(run.result.run.abandoned),
                  static_cast<unsigned long long>(
                      run.result.run.overload_retries),
                  static_cast<unsigned long long>(
                      run.result.run.ctrl_migrations),
                  static_cast<unsigned long long>(
                      run.result.run.ctrl_scale_downs),
                  static_cast<unsigned long long>(run.result.run.timeouts));
  }
  for (const int i : {0, 3}) {
    EXPECT_GT(runs[i].result.run.shed, 0u) << i;
    EXPECT_GT(runs[i].result.run.abandoned, 0u) << i;
    EXPECT_GT(runs[i].result.run.overload_retries, 0u) << i;
  }
  for (const int i : {1, 4}) {
    EXPECT_GT(runs[i].result.run.ctrl_migrations, 0u) << i;
    EXPECT_GT(runs[i].result.run.ctrl_scale_downs, 0u) << i;
  }
  for (const int i : {2, 5}) EXPECT_GT(runs[i].result.run.timeouts, 0u) << i;
  EXPECT_GT(runs[5].result.run.hedge_cancellations, 0u);
  EXPECT_GT(runs[6].result.run.breaker_trips, 0u);

  for (std::size_t i = 0; i < std::size(runs); ++i) {
    EXPECT_EQ(runs[i].pin.events, kLandingPins[i].events) << i;
    EXPECT_EQ(runs[i].pin.trace_hash, kLandingPins[i].trace_hash) << i;
    EXPECT_EQ(runs[i].pin.row_hash, kLandingPins[i].row_hash) << i;
  }
}

TEST(GoldenArtifacts, HealthGatesAreBitStable) {
  // Gates that decide whether a node may take work at all, each reached
  // by a run that no pin above covers:
  // (a) fail-slow churn with the latency watchdog excluding degraded
  //     nodes, net off;
  // (b) the fault layer off and one node limping at a tenth of its speed,
  //     which the watchdog excludes;
  // (c) a partition over the lossy net model with the fault layer on: the
  //     minority master steps down and slaves are promoted;
  // (d) Flat with queue-trip circuit breakers, so the front end's random
  //     pool shrinks to the admitted nodes;
  // (e) M/S' with autoscaling, so receivers skip powered-down nodes.
  core::ExperimentSpec slow_churn = grid_point_spec();
  slow_churn.fault.enabled = true;
  slow_churn.fault.degrade_mttf_s = 1.0;
  slow_churn.fault.degrade_mttr_s = 0.5;
  slow_churn.fault.degrade_cpu_factor = 0.1;
  slow_churn.slow_health.enabled = true;
  slow_churn.slow_health.exclude = true;

  core::ExperimentSpec limping = grid_point_spec();
  limping.node_params.assign(8, sim::NodeParams{});
  limping.node_params[7] = {.cpu_speed = 0.1, .disk_speed = 0.1};
  limping.slow_health.enabled = true;
  limping.slow_health.exclude = true;
  limping.slow_health.min_samples = 8;

  core::ExperimentSpec partition = grid_point_spec();
  partition.net.enabled = true;
  partition.net.loss = 0.01;
  partition.net.partitions = {net::parse_partition_spec("0.8:1.4:0-2|3-7")};
  partition.fault.enabled = true;

  core::ExperimentSpec flat_breakers = grid_point_spec();
  flat_breakers.kind = core::SchedulerKind::kFlat;
  flat_breakers.lambda = 600;
  flat_breakers.overload.breaker.enabled = true;
  flat_breakers.overload.breaker.queue_trip = 2.0;
  flat_breakers.overload.breaker.queue_trip_rounds = 2;

  core::ExperimentSpec prime_scale = grid_point_spec();
  prime_scale.kind = core::SchedulerKind::kMsPrime;
  prime_scale.msprime_k = 2;
  prime_scale.ctrl.enabled = true;
  prime_scale.ctrl.autoscale = true;
  prime_scale.ctrl.dwell_s = 0.25;
  prime_scale.ctrl.scale_down_util = 0.6;

  const LandingRun runs[] = {LandingRun(slow_churn), LandingRun(limping),
                             LandingRun(partition), LandingRun(flat_breakers),
                             LandingRun(prime_scale)};
  if (print_golden()) {
    for (const LandingRun& run : runs)
      std::printf("health gate: {%llu, %lluull, %lluull}, slow_degraded=%llu "
                  "stepdowns=%llu promotions=%llu trips=%llu "
                  "scale_downs=%llu\n",
                  static_cast<unsigned long long>(run.pin.events),
                  static_cast<unsigned long long>(run.pin.trace_hash),
                  static_cast<unsigned long long>(run.pin.row_hash),
                  static_cast<unsigned long long>(
                      run.result.run.slow_degraded),
                  static_cast<unsigned long long>(
                      run.result.run.net_stepdowns),
                  static_cast<unsigned long long>(run.result.run.promotions),
                  static_cast<unsigned long long>(
                      run.result.run.breaker_trips),
                  static_cast<unsigned long long>(
                      run.result.run.ctrl_scale_downs));
  }
  for (const int i : {0, 1})
    EXPECT_GT(runs[i].result.run.slow_degraded, 0u) << i;
  EXPECT_GT(runs[2].result.run.net_stepdowns, 0u);
  EXPECT_GT(runs[2].result.run.promotions, 0u);
  EXPECT_GT(runs[3].result.run.breaker_trips, 0u);
  EXPECT_GT(runs[4].result.run.ctrl_scale_downs, 0u);

  for (std::size_t i = 0; i < std::size(runs); ++i) {
    EXPECT_EQ(runs[i].pin.events, kHealthGatePins[i].events) << i;
    EXPECT_EQ(runs[i].pin.trace_hash, kHealthGatePins[i].trace_hash) << i;
    EXPECT_EQ(runs[i].pin.row_hash, kHealthGatePins[i].row_hash) << i;
  }
}

TEST(GoldenArtifacts, RpcPathsAreBitStable) {
  // Corners of the at-least-once RPC wire that no pin above reaches in
  // full: every data copy, ack, timeout and retransmit is an event, so a
  // change to how they are scheduled moves these traces.
  // (a) a data latency above the RPC timeout: every dispatch is
  //     retransmitted before its first copy lands, so duplicates are
  //     dropped at the receiver;
  // (b) 20% loss with reordering and jitter, fault layer on: calls that
  //     exhaust their two attempts fail over;
  // (c) as (b) with the fault layer off: those calls time out on the wire;
  // (d) a partition window over the fault layer: messages across it are
  //     dropped at send time.
  core::ExperimentSpec slow_wire = grid_point_spec();
  slow_wire.net.enabled = true;
  slow_wire.net.latency_base_s = 0.03;
  slow_wire.net.rpc_timeout_s = 0.02;

  core::ExperimentSpec failover = grid_point_spec();
  failover.net.enabled = true;
  failover.net.loss = 0.2;
  failover.net.reorder = 0.3;
  failover.net.latency_jitter_s = 0.002;
  failover.net.control_jitter_s = 0.001;
  failover.net.rpc_max_attempts = 2;
  failover.fault.enabled = true;

  core::ExperimentSpec wire_timeout = failover;
  wire_timeout.fault.enabled = false;

  core::ExperimentSpec split = grid_point_spec();
  split.net.enabled = true;
  split.net.partitions = {net::parse_partition_spec("0.6:1.2:0,4-5|1-3,6-7")};
  split.fault.enabled = true;

  const LandingRun runs[] = {LandingRun(slow_wire), LandingRun(failover),
                             LandingRun(wire_timeout), LandingRun(split)};
  if (print_golden()) {
    for (const LandingRun& run : runs)
      std::printf("rpc: {%llu, %lluull, %lluull}, retries=%llu "
                  "duplicates=%llu failures=%llu partition_drops=%llu "
                  "timeouts=%llu\n",
                  static_cast<unsigned long long>(run.pin.events),
                  static_cast<unsigned long long>(run.pin.trace_hash),
                  static_cast<unsigned long long>(run.pin.row_hash),
                  static_cast<unsigned long long>(
                      run.result.run.net_rpc_retries),
                  static_cast<unsigned long long>(run.result.run.net_duplicates),
                  static_cast<unsigned long long>(
                      run.result.run.net_rpc_failures),
                  static_cast<unsigned long long>(
                      run.result.run.net_partition_drops),
                  static_cast<unsigned long long>(run.result.run.timeouts));
  }
  EXPECT_GT(runs[0].result.run.net_rpc_retries, 0u);
  EXPECT_GT(runs[0].result.run.net_duplicates, 0u);
  EXPECT_GT(runs[1].result.run.net_rpc_failures, 0u);
  EXPECT_GT(runs[1].result.run.redispatches, 0u);
  EXPECT_GT(runs[2].result.run.net_rpc_failures, 0u);
  EXPECT_GT(runs[2].result.run.timeouts, 0u);
  EXPECT_GT(runs[3].result.run.net_partition_drops, 0u);

  for (std::size_t i = 0; i < std::size(runs); ++i) {
    EXPECT_EQ(runs[i].pin.events, kRpcPins[i].events) << i;
    EXPECT_EQ(runs[i].pin.trace_hash, kRpcPins[i].trace_hash) << i;
    EXPECT_EQ(runs[i].pin.row_hash, kRpcPins[i].row_hash) << i;
  }
}


/// One run of `spec`, with or without a Chrome trace sink attached.
struct OptionallyTracedRun {
  OptionallyTracedRun(core::ExperimentSpec spec, bool traced) {
    obs::ChromeTraceSink sink;
    if (traced) spec.observer.trace = &sink;
    spec.max_events = 200000;
    result = core::run_experiment(spec);
    row = harness::csv_string({harness::full_row(result)});
  }
  core::ExperimentResult result;
  std::string row;
};

TEST(NodeRuns, TracedAndUntracedRunsAgree) {
  // A trace sink records one span per CPU quantum and disk page, so a
  // traced node schedules one event per slice. An untraced node schedules
  // fewer events, but every outcome must stay the same: the full row, the
  // slice counts and the stretch. Each spec reaches a node path that reads
  // or cuts a run mid-flight.
  core::ExperimentSpec plain = grid_point_spec();

  // Fail-slow episodes with stalls change node speeds mid-slice; crash
  // churn kills nodes mid-slice.
  core::ExperimentSpec churn = grid_point_spec();
  churn.fault.enabled = true;
  churn.fault.mttf_s = 2.0;
  churn.fault.mttr_s = 0.5;
  churn.fault.degrade_mttf_s = 0.5;
  churn.fault.degrade_mttr_s = 0.3;
  churn.fault.degrade_cpu_factor = 0.1;
  churn.fault.stall_period_s = 0.2;

  // Static hedging cancels the losing copy wherever it sits, on the disk
  // included.
  core::ExperimentSpec hedged = grid_point_spec();
  hedged.hedge.enabled = true;
  hedged.hedge.hedge_static = true;
  hedged.hedge.delay_s = 0.02;

  // Client deadlines abort running processes.
  core::ExperimentSpec deadlines = grid_point_spec();
  deadlines.lambda = 600;
  deadlines.overload.deadline.static_s = 0.5;
  deadlines.overload.deadline.dynamic_s = 1.0;
  deadlines.overload.admission.policy =
      overload::AdmissionPolicy::kQueueDepth;
  deadlines.overload.admission.max_queue = 2.0;

  // Autoscaling powers nodes down mid-run.
  core::ExperimentSpec scale = grid_point_spec();
  scale.ctrl.enabled = true;
  scale.ctrl.autoscale = true;
  scale.ctrl.retarget_masters = true;
  scale.ctrl.dwell_s = 0.25;
  scale.ctrl.scale_down_util = 0.6;

  // A span ledger without trees: its CPU/disk phase marks must sum the
  // same whether slices are marked one by one or not.
  core::ExperimentSpec ledger = grid_point_spec();
  ledger.obs.spans = true;

  // Heterogeneous node speeds: wall times round per slice.
  core::ExperimentSpec speeds = grid_point_spec();
  for (int i = 0; i < speeds.p; ++i)
    speeds.node_params.push_back(
        {i % 2 == 0 ? 0.7 : 1.9, i % 3 == 0 ? 0.45 : 1.3});

  const core::ExperimentSpec specs[] = {plain,  churn, hedged, deadlines,
                                        scale, ledger, speeds};
  std::vector<core::ExperimentResult> untraced_results;
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    const OptionallyTracedRun traced(specs[i], true);
    const OptionallyTracedRun untraced(specs[i], false);
    EXPECT_EQ(traced.row, untraced.row) << i;
    EXPECT_EQ(traced.result.run.cpu_slices, untraced.result.run.cpu_slices)
        << i;
    EXPECT_EQ(traced.result.run.disk_slices,
              untraced.result.run.disk_slices)
        << i;
    EXPECT_DOUBLE_EQ(traced.result.run.metrics.stretch,
                     untraced.result.run.metrics.stretch)
        << i;
    // Untraced, a process alone on its CPU or disk runs its whole phase
    // on one event.
    EXPECT_LT(untraced.result.run.events, traced.result.run.events) << i;
    untraced_results.push_back(untraced.result);
  }
  // Each spec reaches the path it is meant to.
  EXPECT_GT(untraced_results[1].run.node_crashes, 0u);
  EXPECT_GT(untraced_results[1].run.degrade_events, 0u);
  EXPECT_GT(untraced_results[2].run.hedge_cancellations, 0u);
  EXPECT_GT(untraced_results[3].run.abandoned, 0u);
  EXPECT_GT(untraced_results[4].run.ctrl_scale_downs, 0u);
  EXPECT_TRUE(untraced_results[5].spans.enabled);
}

}  // namespace
}  // namespace wsched
