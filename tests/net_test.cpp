// Network fault model tests: partition-spec parsing, link latency and
// loss determinism, reachability under partitions, RPC retransmit /
// receiver-side dedup / failure semantics, stale load views, and full
// cluster runs over the lossy interconnect — the ideal() byte-identity
// contract, accounting closure under loss, quorum-gated promotion with
// zero split-brain rounds, and the split-brain counterexample without
// quorum.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "harness/sweep.hpp"
#include "net/net_health.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "net/stale_view.hpp"
#include "sim/engine.hpp"
#include "trace/profile.hpp"
#include "util/time.hpp"

namespace wsched {
namespace {

// --- Partition spec parsing ---

TEST(PartitionSpec, ParsesRangesAndGroups) {
  const net::PartitionSpec spec = net::parse_partition_spec("6:10:0-5|6,7");
  EXPECT_EQ(spec.from, from_seconds(6.0));
  EXPECT_EQ(spec.until, from_seconds(10.0));
  ASSERT_EQ(spec.groups.size(), 2u);
  EXPECT_EQ(spec.groups[0], (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(spec.groups[1], (std::vector<int>{6, 7}));
}

TEST(PartitionSpec, RejectsMalformedInput) {
  EXPECT_THROW(net::parse_partition_spec("nonsense"), std::invalid_argument);
  EXPECT_THROW(net::parse_partition_spec("6:10:0-7"), std::invalid_argument);
  EXPECT_THROW(net::parse_partition_spec("10:6:0|1"), std::invalid_argument);
  EXPECT_THROW(net::parse_partition_spec("1:2:0,x|3"), std::invalid_argument);
  EXPECT_THROW(net::parse_partition_spec("1:2:5-3|0"), std::invalid_argument);
}

TEST(Network, RejectsBadConfig) {
  sim::Engine engine;
  net::NetworkParams params;
  params.enabled = true;
  params.loss = 1.0;
  EXPECT_THROW(net::Network(engine, params, 4, 1), std::invalid_argument);
  params.loss = 0.0;
  net::PartitionSpec window;
  window.from = from_seconds(1.0);
  window.until = from_seconds(2.0);
  window.groups = {{0, 1}, {1, 2}};  // node 1 in two groups
  params.partitions = {window};
  EXPECT_THROW(net::Network(engine, params, 4, 1), std::invalid_argument);
}

// --- Latency / loss determinism ---

TEST(Network, ConstantLatencyWithoutJitterDrawsNothing) {
  sim::Engine engine;
  net::NetworkParams params;
  params.enabled = true;
  params.latency_base_s = 0.002;
  net::Network network(engine, params, 4, 7);
  const Time first = network.sample_latency(net::MsgKind::kData, 0, 1);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(network.sample_latency(net::MsgKind::kData, 0, 1), first);
  EXPECT_EQ(first, from_seconds(0.002));
}

TEST(Network, LinkSpreadIsDeterministicPerLink) {
  sim::Engine engine;
  net::NetworkParams params;
  params.enabled = true;
  params.link_spread = 0.4;
  net::Network a(engine, params, 8, 7);
  net::Network b(engine, params, 8, 99);  // seed-independent (hash, not RNG)
  bool any_differs = false;
  for (int dst = 1; dst < 8; ++dst) {
    const Time la = a.sample_latency(net::MsgKind::kData, 0, dst);
    EXPECT_EQ(la, b.sample_latency(net::MsgKind::kData, 0, dst));
    if (la != a.sample_latency(net::MsgKind::kData, 0, 1)) any_differs = true;
    EXPECT_GE(to_seconds(la), params.latency_base_s * (1.0 - 0.4));
    EXPECT_LE(to_seconds(la), params.latency_base_s * (1.0 + 0.4));
  }
  EXPECT_TRUE(any_differs);
}

TEST(Network, LossSequenceIsSeedDeterministic) {
  const auto outcomes = [](std::uint64_t seed) {
    sim::Engine engine;
    net::NetworkParams params;
    params.enabled = true;
    params.loss = 0.5;
    net::Network network(engine, params, 2, seed);
    std::vector<bool> sent;
    for (int i = 0; i < 64; ++i)
      sent.push_back(network.send(0, 1, net::MsgKind::kData, [] {}));
    return sent;
  };
  EXPECT_EQ(outcomes(11), outcomes(11));
  EXPECT_NE(outcomes(11), outcomes(12));
}

// --- Partition reachability ---

TEST(Network, PartitionSplitsReachabilityAndFrontEndRidesMajority) {
  sim::Engine engine;
  net::NetworkParams params;
  params.enabled = true;
  net::PartitionSpec window;
  window.from = from_seconds(1.0);
  window.until = from_seconds(2.0);
  window.groups = {{0, 1, 2}, {3, 4}};
  params.partitions = {window};
  net::Network network(engine, params, 5, 1);
  network.start();
  engine.schedule_at(from_seconds(1.5), [&] {
    EXPECT_TRUE(network.partition_active());
    EXPECT_TRUE(network.reachable(0, 1));
    EXPECT_FALSE(network.reachable(0, 3));
    EXPECT_TRUE(network.reachable(3, 4));
    EXPECT_TRUE(network.front_end_reaches(0));   // majority side
    EXPECT_FALSE(network.front_end_reaches(4));  // minority side
    EXPECT_FALSE(network.send(0, 3, net::MsgKind::kData, [] {}));
  });
  engine.run();
  EXPECT_FALSE(network.partition_active());
  EXPECT_TRUE(network.reachable(0, 3));
  EXPECT_EQ(network.partitions_seen(), 1u);
  EXPECT_EQ(network.partition_drops(), 1u);
}

// --- RPC ---

TEST(DedupFilter, ClaimsEachIdOnce) {
  net::DedupFilter dedup;
  EXPECT_TRUE(dedup.claim(42));
  EXPECT_FALSE(dedup.claim(42));
  EXPECT_TRUE(dedup.claim(43));
  EXPECT_TRUE(dedup.seen(42));
  EXPECT_FALSE(dedup.seen(44));
  EXPECT_EQ(dedup.size(), 2u);
}

TEST(Rpc, SlowFirstCopyIsDeliveredOnceAndDuplicatesDropped) {
  // Data latency (30 ms) exceeds the RPC timeout (10 ms): the first copy
  // is retransmitted before it lands, so two copies arrive. The receiver
  // must execute exactly one and count the other as a duplicate.
  sim::Engine engine;
  net::NetworkParams params;
  params.enabled = true;
  params.latency_base_s = 0.030;
  net::Network network(engine, params, 2, 3);
  net::Rpc::Options options;
  options.timeout = 10 * kMillisecond;
  options.max_attempts = 3;
  options.backoff = overload::BackoffConfig::linear(kMillisecond);
  net::Rpc rpc(engine, network, options, 3);
  int delivered = 0;
  int failed = 0;
  rpc.call(0, 1, [&] { ++delivered; }, [&] { ++failed; });
  engine.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(failed, 0);
  EXPECT_GE(rpc.retries(), 1u);
  EXPECT_GE(rpc.duplicates(), 1u);
  EXPECT_EQ(rpc.failures(), 0u);
  EXPECT_EQ(rpc.open_calls(), 0u);
}

TEST(Rpc, UnreachableDestinationFailsAfterAllAttempts) {
  sim::Engine engine;
  net::NetworkParams params;
  params.enabled = true;
  net::PartitionSpec window;
  window.from = 0;
  window.until = from_seconds(60.0);
  window.groups = {{0}, {1}};
  params.partitions = {window};
  net::Network network(engine, params, 2, 3);
  network.start();
  net::Rpc::Options options;
  options.timeout = 5 * kMillisecond;
  options.max_attempts = 3;
  options.backoff = overload::BackoffConfig::linear(kMillisecond);
  net::Rpc rpc(engine, network, options, 3);
  int delivered = 0;
  int failed = 0;
  engine.schedule_at(kMillisecond,
                     [&] { rpc.call(0, 1, [&] { ++delivered; },
                                    [&] { ++failed; }); });
  engine.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(rpc.retries(), 2u);  // attempts 2 and 3
  EXPECT_EQ(rpc.failures(), 1u);
  EXPECT_EQ(network.partition_drops(), 3u);
  EXPECT_EQ(rpc.open_calls(), 0u);
}

// --- Stale views ---

TEST(StaleClusterView, TracksPerReceiverAges) {
  net::StaleClusterView view(3);
  core::LoadInfo info;
  info.cpu_idle_ratio = 0.25;
  view.apply_report(0, 2, info, from_seconds(1.0));
  EXPECT_DOUBLE_EQ(view.seen_by(0)[2].cpu_idle_ratio, 0.25);
  EXPECT_DOUBLE_EQ(view.age_s(0, 2, from_seconds(3.5)), 2.5);
  // Receiver 1 never heard the report; its knowledge dates to t = 0.
  EXPECT_DOUBLE_EQ(view.age_s(1, 2, from_seconds(3.5)), 3.5);
  EXPECT_EQ(view.reports_applied(), 1u);
}

// --- Full cluster runs ---

core::ExperimentSpec net_spec(std::uint64_t seed = 5) {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 8;
  spec.m = 2;
  spec.lambda = 300;
  spec.r = 1.0 / 40.0;
  spec.duration_s = 6.0;
  spec.warmup_s = 1.5;
  spec.kind = core::SchedulerKind::kMs;
  spec.seed = seed;
  return spec;
}

void expect_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.metrics.stretch, b.metrics.stretch);
  EXPECT_DOUBLE_EQ(a.metrics.mean_response_s, b.metrics.mean_response_s);
  EXPECT_DOUBLE_EQ(a.mean_cpu_utilization, b.mean_cpu_utilization);
  EXPECT_DOUBLE_EQ(a.theta_limit, b.theta_limit);
}

TEST(ClusterNet, IdealNetworkIsTheDisabledNetworkByteForByte) {
  // NetworkParams::ideal() IS the disabled config: the paper's perfect
  // wire is represented by constructing nothing, so the two runs replay
  // the same draws event for event.
  core::ExperimentSpec off = net_spec();
  core::ExperimentSpec ideal = off;
  ideal.net = net::NetworkParams::ideal();
  const core::ExperimentResult a = core::run_experiment(off);
  const core::ExperimentResult b = core::run_experiment(ideal);
  expect_identical(a.run, b.run);
  EXPECT_FALSE(b.run.net_enabled);
  EXPECT_EQ(b.run.net_sent, 0u);
}

TEST(ClusterNet, LossyRunClosesTheLedgerAndIsDeterministic) {
  core::ExperimentSpec spec = net_spec();
  spec.fault.enabled = true;  // lost dispatches fail over
  spec.net.enabled = true;
  spec.net.loss = 0.05;
  spec.net.latency_jitter_s = 0.0005;
  const core::ExperimentResult a = core::run_experiment(spec);
  const core::ExperimentResult b = core::run_experiment(spec);
  expect_identical(a.run, b.run);
  EXPECT_TRUE(a.run.net_enabled);
  EXPECT_GT(a.run.net_sent, 0u);
  EXPECT_GT(a.run.net_lost(), 0u);
  EXPECT_GT(a.run.net_rpc_retries, 0u);
  EXPECT_GT(a.run.net_reports, 0u);
  // Accounting closure: every submitted request completed or was counted
  // out loud — nothing vanishes on the wire.
  EXPECT_EQ(a.run.completed + a.run.timeouts + a.run.shed + a.run.abandoned,
            a.run.submitted);
}

TEST(ClusterNet, QuietNetLayerStillClosesLedgerWithoutFaultLayer) {
  // Net model on, fault layer off: a dispatch lost past the RPC attempt
  // cap has no failover path and must surface as a timeout.
  core::ExperimentSpec spec = net_spec();
  spec.net.enabled = true;
  spec.net.loss = 0.02;
  const core::ExperimentResult result = core::run_experiment(spec);
  EXPECT_EQ(result.run.completed + result.run.timeouts, result.run.submitted);
}

TEST(ClusterNet, PartitionWithoutFaultLayerIsRejected) {
  core::ClusterConfig config;
  config.p = 4;
  config.m = 1;
  config.net.enabled = true;
  net::PartitionSpec window;
  window.from = from_seconds(1.0);
  window.until = from_seconds(2.0);
  window.groups = {{0, 1, 2}, {3}};
  config.net.partitions = {window};
  EXPECT_THROW(core::ClusterSim(config, core::make_ms()),
               std::invalid_argument);
}

core::ExperimentSpec partition_spec(bool quorum) {
  core::ExperimentSpec spec = net_spec();
  spec.duration_s = 8.0;
  spec.fault.enabled = true;
  spec.net.enabled = true;
  spec.net.quorum = quorum;
  net::PartitionSpec window;
  window.from = from_seconds(3.0);
  window.until = from_seconds(5.0);
  // The minority side takes master 1 and slave 7 with it.
  window.groups = {{0, 2, 3, 4, 5, 6}, {1, 7}};
  spec.net.partitions = {window};
  return spec;
}

TEST(ClusterNet, QuorumPreventsSplitBrainUnderPartition) {
  const core::ExperimentResult result =
      core::run_experiment(partition_spec(true));
  // The isolated master stepped down, the majority elected a replacement,
  // and at no detection round did more than m nodes claim the role.
  EXPECT_EQ(result.run.net_split_brain_rounds, 0u);
  EXPECT_GE(result.run.net_stepdowns, 1u);
  EXPECT_GE(result.run.promotions, 1u);
  EXPECT_EQ(result.run.net_partitions, 1u);
  EXPECT_EQ(result.run.completed + result.run.timeouts + result.run.shed +
                result.run.abandoned,
            result.run.submitted);
}

TEST(ClusterNet, NoQuorumExhibitsSplitBrain) {
  const core::ExperimentResult result =
      core::run_experiment(partition_spec(false));
  // Without the gate the isolated master keeps claiming while the
  // majority promotes a replacement: claimants exceed m until the heal.
  EXPECT_GT(result.run.net_split_brain_rounds, 0u);
  EXPECT_EQ(result.run.net_stepdowns, 0u);
}

TEST(ClusterNet, StaleFallbackFiresWhenReportsAge) {
  core::ExperimentSpec spec = net_spec();
  spec.net.enabled = true;
  spec.net.load_report_interval_s = 1.0;
  spec.net.stale_max_age_s = 0.3;
  const core::ExperimentResult result = core::run_experiment(spec);
  // Reports arrive every 1 s but knowledge older than 0.3 s triggers the
  // power-of-two-choices fallback, so most dynamic picks degrade.
  EXPECT_GT(result.run.net_stale_fallbacks, 0u);
  EXPECT_EQ(result.run.completed + result.run.timeouts, result.run.submitted);
}

TEST(ClusterNet, NetStatisticsReachSweepRows) {
  harness::ResultRow row;
  core::ExperimentSpec spec = net_spec();
  spec.net.enabled = true;
  spec.net.loss = 0.02;
  spec.fault.enabled = true;
  const core::ExperimentResult result = core::run_experiment(spec);
  harness::append_metrics(row, result);
  harness::append_net_metrics(row, result);
  EXPECT_GT(row.number("net_sent"), 0.0);
  EXPECT_EQ(static_cast<std::uint64_t>(row.number("submitted")),
            result.run.submitted);
}

}  // namespace
}  // namespace wsched
