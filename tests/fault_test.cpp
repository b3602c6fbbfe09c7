// Fault-injection & failover subsystem tests: membership/promotion rules,
// Theorem-1 re-sizing under churn, failure-detection latency, node crash
// semantics at the sim level, and full cluster runs under scripted and
// stochastic faults (availability, re-dispatch, timeout accounting,
// post-promotion recovery, seed determinism under churn).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/reservation.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "fault/membership.hpp"
#include "net/net_health.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "trace/profile.hpp"

namespace wsched {
namespace {

// --- Membership / promotion rules ---

TEST(Membership, StartsWithStaticConvention) {
  fault::Membership mem(6, 2);
  EXPECT_EQ(mem.effective_p(), 6);
  EXPECT_EQ(mem.effective_m(), 2);
  EXPECT_TRUE(mem.is_master(0));
  EXPECT_TRUE(mem.is_master(1));
  EXPECT_FALSE(mem.is_master(2));
  EXPECT_EQ(mem.masters(), (std::vector<int>{0, 1}));
  EXPECT_EQ(mem.slaves(), (std::vector<int>{2, 3, 4, 5}));
}

TEST(Membership, MasterDeathPromotesLowestIdHealthySlave) {
  fault::Membership mem(6, 2);
  EXPECT_EQ(mem.mark_dead(0), 2);
  EXPECT_EQ(mem.effective_p(), 5);
  EXPECT_EQ(mem.effective_m(), 2);  // promotion keeps the pool sized
  EXPECT_TRUE(mem.is_master(2));
  EXPECT_EQ(mem.promotions(), 1u);
  // The recovered ex-master rejoins as a slave: its role moved on.
  mem.mark_alive(0);
  EXPECT_FALSE(mem.is_master(0));
  EXPECT_EQ(mem.effective_p(), 6);
  EXPECT_EQ(mem.effective_m(), 2);
  EXPECT_EQ(mem.slaves(), (std::vector<int>{0, 3, 4, 5}));
}

TEST(Membership, SlaveDeathDoesNotPromote) {
  fault::Membership mem(6, 2);
  EXPECT_EQ(mem.mark_dead(4), -1);
  EXPECT_EQ(mem.effective_m(), 2);
  EXPECT_EQ(mem.promotions(), 0u);
}

TEST(Membership, NoPromotableSlaveShrinksMasterPool) {
  fault::Membership mem(2, 2);  // all-master cluster
  EXPECT_EQ(mem.mark_dead(0), -1);
  EXPECT_EQ(mem.effective_m(), 1);
  // The node died with its role; it resumes as master on recovery.
  mem.mark_alive(0);
  EXPECT_TRUE(mem.is_master(0));
  EXPECT_EQ(mem.effective_m(), 2);
}

TEST(Membership, RetargetResizesOnlyTheStaticSplit) {
  // Without failover a retarget moves the master count and keeps the
  // static split; under failover the promotion rule owns the roles.
  fault::Membership fixed(6, 2, /*failover=*/false);
  EXPECT_FALSE(fixed.failover());
  fixed.set_master_count(3);
  EXPECT_EQ(fixed.masters(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(fixed.slaves(), (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(fixed.effective_m(), 3);
  fixed.set_master_count(1);
  EXPECT_EQ(fixed.masters(), (std::vector<int>{0}));
  EXPECT_EQ(fixed.available().size(), 6u);
  EXPECT_THROW(fixed.set_master_count(0), std::invalid_argument);
  EXPECT_THROW(fixed.set_master_count(7), std::invalid_argument);

  fault::Membership failover(6, 2);
  EXPECT_TRUE(failover.failover());
  EXPECT_THROW(failover.set_master_count(3), std::logic_error);
  EXPECT_EQ(failover.masters(), (std::vector<int>{0, 1}));
}

// --- Reservation re-sizing from effective (p, m) ---

TEST(Reservation, MembershipChangeRecomputesTheta) {
  core::ReservationConfig config;
  config.p = 8;
  config.m = 2;
  core::ReservationController controller(config);
  const double r = controller.r_hat();
  const double a = controller.a_hat();
  EXPECT_DOUBLE_EQ(controller.theta_limit(),
                   core::ReservationController::theta_limit_for(8, 2, r, a));

  // A slave died: p shrinks, m holds (promotion happened elsewhere).
  controller.set_membership(7, 2);
  EXPECT_DOUBLE_EQ(controller.theta_limit(),
                   core::ReservationController::theta_limit_for(7, 2, r, a));
  EXPECT_EQ(controller.nodes(), 7);
  EXPECT_EQ(controller.masters(), 2);

  // Every master is gone and nothing is promotable: reservation closes.
  controller.set_membership(6, 0);
  EXPECT_DOUBLE_EQ(controller.theta_limit(), 0.0);
  EXPECT_FALSE(controller.master_allowed());

  // Self-stabilization: restoring the membership restores the limit.
  controller.set_membership(8, 2);
  EXPECT_DOUBLE_EQ(controller.theta_limit(),
                   core::ReservationController::theta_limit_for(8, 2, r, a));
}

TEST(Reservation, SetMembershipValidates) {
  core::ReservationConfig config;
  config.p = 4;
  config.m = 2;
  core::ReservationController controller(config);
  EXPECT_THROW(controller.set_membership(-1, 0), std::invalid_argument);
  EXPECT_THROW(controller.set_membership(4, 5), std::invalid_argument);
  // Total outage (every node dead) is a valid transient: reservation closes.
  controller.set_membership(0, 0);
  EXPECT_DOUBLE_EQ(controller.theta_limit(), 0.0);
}

// --- Sim-level node crash/recovery/degradation ---

trace::TraceRecord small_request(Time demand = 50 * kMillisecond) {
  trace::TraceRecord rec;
  rec.cls = trace::RequestClass::kDynamic;
  rec.service_demand = demand;
  rec.cpu_fraction = 0.5;
  rec.mem_pages = 16;
  return rec;
}

TEST(NodeFault, CrashDropsInflightWorkAndReclaimsMemory) {
  sim::Engine engine;
  sim::OsParams os;
  sim::Node node(engine, os, sim::NodeParams{}, 0);
  int completions = 0;
  node.set_completion_callback([&](const sim::Job&, Time) { ++completions; });
  for (std::uint64_t i = 0; i < 3; ++i) {
    sim::Job job;
    job.id = i + 1;
    job.request = small_request();
    node.submit(std::move(job));
  }
  engine.run_until(10 * kMillisecond);
  ASSERT_EQ(node.live_processes(), 3u);
  EXPECT_GT(node.memory().used_pages(), 0u);

  const std::vector<sim::Job> dropped = node.crash();
  EXPECT_EQ(dropped.size(), 3u);
  EXPECT_FALSE(node.alive());
  EXPECT_EQ(node.live_processes(), 0u);
  EXPECT_EQ(node.memory().used_pages(), 0u);

  // Pending slice/tick events are stale and must no-op; the queue drains.
  engine.run();
  EXPECT_EQ(completions, 0);

  node.recover();
  EXPECT_TRUE(node.alive());
  sim::Job job;
  job.id = 9;
  job.request = small_request();
  node.submit(std::move(job));
  engine.run();
  EXPECT_EQ(completions, 1);
}

TEST(NodeFault, DegradationSlowsCompletion) {
  const auto completion_time = [](double cpu_factor, double disk_factor) {
    sim::Engine engine;
    sim::OsParams os;
    sim::Node node(engine, os, sim::NodeParams{}, 0);
    node.set_degradation(cpu_factor, disk_factor);
    Time done = 0;
    node.set_completion_callback(
        [&](const sim::Job&, Time at) { done = at; });
    sim::Job job;
    job.id = 1;
    job.request = small_request();
    node.submit(std::move(job));
    engine.run();
    return done;
  };
  const Time nominal = completion_time(1.0, 1.0);
  const Time degraded = completion_time(0.25, 0.5);
  ASSERT_GT(nominal, 0);
  EXPECT_GT(degraded, 2 * nominal);
}

TEST(NodeFault, CancelRemovesLiveJobWithoutCompleting) {
  sim::Engine engine;
  sim::OsParams os;
  sim::Node node(engine, os, sim::NodeParams{}, 0);
  std::vector<std::uint64_t> completed;
  node.set_completion_callback(
      [&](const sim::Job& job, Time) { completed.push_back(job.id); });
  for (std::uint64_t i = 1; i <= 2; ++i) {
    sim::Job job;
    job.id = i;
    job.request = small_request();
    node.submit(std::move(job));
  }
  engine.run_until(5 * kMillisecond);
  ASSERT_EQ(node.live_processes(), 2u);

  // Cancelling a live job frees its slot; the survivor still finishes.
  EXPECT_TRUE(node.cancel(2));
  EXPECT_EQ(node.live_processes(), 1u);
  // A second cancel of the same id (the loser already gone) is a no-op.
  EXPECT_FALSE(node.cancel(2));
  EXPECT_FALSE(node.cancel(99));
  engine.run();
  EXPECT_EQ(completed, (std::vector<std::uint64_t>{1}));

  // Cancel against a dead node must be tolerated, not assert: the cluster
  // cancels against a possibly-stale hedge location.
  node.crash();
  EXPECT_FALSE(node.cancel(1));
}

// --- Failure detection latency ---

TEST(Health, DetectionFollowsMissedHeartbeats) {
  sim::Engine engine;
  sim::OsParams os;
  sim::Node a(engine, os, sim::NodeParams{}, 0);
  sim::Node b(engine, os, sim::NodeParams{}, 1);
  const Time period = 100 * kMillisecond;
  // No Network: a perfect wire, so only a crash silences a heartbeat.
  net::NetHealth health(engine, {&a, &b}, nullptr,
                        {.period = period, .suspect_misses = 1,
                         .dead_misses = 2},
                        1);
  health.start();
  int dead_seen = -1;
  health.set_on_transition(
      [&](int node, fault::NodeHealth, fault::NodeHealth to) {
        if (to == fault::NodeHealth::kDead) dead_seen = node;
      });

  engine.schedule_at(250 * kMillisecond, [&] { b.crash(); });
  engine.run_until(260 * kMillisecond);  // not yet detected
  EXPECT_EQ(health.health(1), fault::NodeHealth::kHealthy);
  EXPECT_EQ(health.healthy_count(), 2);

  engine.run_until(320 * kMillisecond);  // one missed heartbeat
  EXPECT_EQ(health.health(1), fault::NodeHealth::kSuspected);
  EXPECT_EQ(dead_seen, -1);

  engine.run_until(420 * kMillisecond);  // two missed heartbeats
  EXPECT_EQ(health.health(1), fault::NodeHealth::kDead);
  EXPECT_EQ(dead_seen, 1);
  EXPECT_EQ(health.healthy_count(), 1);

  engine.schedule_at(450 * kMillisecond, [&] { b.recover(); });
  engine.run_until(520 * kMillisecond);  // first heartbeat after recovery
  EXPECT_EQ(health.health(1), fault::NodeHealth::kHealthy);
  EXPECT_EQ(health.healthy_count(), 2);
}

// --- Full cluster runs under faults ---

core::ExperimentSpec fault_spec(core::SchedulerKind kind,
                                std::uint64_t seed = 5) {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 8;
  spec.m = 2;
  spec.lambda = 300;
  spec.r = 1.0 / 40.0;
  spec.duration_s = 6.0;
  spec.warmup_s = 1.5;
  spec.kind = kind;
  spec.seed = seed;
  return spec;
}

TEST(ClusterFault, QuietFaultLayerIsBitIdentical) {
  // An enabled fault layer with no fault events must not perturb a single
  // routing draw: same metrics, bit for bit, as a disabled one.
  core::ExperimentSpec off = fault_spec(core::SchedulerKind::kMs);
  core::ExperimentSpec on = off;
  on.fault.enabled = true;  // no script, mttf 0 — nothing ever fires
  const core::ExperimentResult a = core::run_experiment(off);
  const core::ExperimentResult b = core::run_experiment(on);
  EXPECT_DOUBLE_EQ(a.run.metrics.stretch, b.run.metrics.stretch);
  EXPECT_DOUBLE_EQ(a.run.metrics.mean_response_s,
                   b.run.metrics.mean_response_s);
  EXPECT_EQ(a.run.metrics.completed, b.run.metrics.completed);
  EXPECT_EQ(b.run.node_crashes, 0u);
  EXPECT_EQ(b.run.timeouts, 0u);
  EXPECT_DOUBLE_EQ(b.run.availability, 1.0);
}

TEST(ClusterFault, QuietFaultLayerIsBitIdenticalForFlat) {
  core::ExperimentSpec off = fault_spec(core::SchedulerKind::kFlat);
  core::ExperimentSpec on = off;
  on.fault.enabled = true;
  const core::ExperimentResult a = core::run_experiment(off);
  const core::ExperimentResult b = core::run_experiment(on);
  EXPECT_DOUBLE_EQ(a.run.metrics.stretch, b.run.metrics.stretch);
  EXPECT_EQ(a.run.metrics.completed, b.run.metrics.completed);
}

TEST(ClusterFault, DetectorThresholdsAreCheckedWithAndWithoutNet) {
  // One detector serves both wire models, so a bad threshold is refused
  // whether or not the net model is on.
  for (const bool net_on : {false, true}) {
    for (const auto& [suspect, dead] : {std::pair{0, 2}, std::pair{3, 2}}) {
      core::ExperimentSpec spec = fault_spec(core::SchedulerKind::kMs);
      spec.duration_s = 0.5;
      spec.warmup_s = 0.1;
      spec.fault.enabled = true;
      spec.fault.suspect_misses = suspect;
      spec.fault.dead_misses = dead;
      spec.net.enabled = net_on;
      EXPECT_THROW(core::run_experiment(spec), std::invalid_argument)
          << "net " << net_on << " suspect " << suspect << " dead " << dead;
    }
  }
}

TEST(ClusterFault, ScriptedMasterCrashFailsOverAndRecovers) {
  // The acceptance scenario: a master dies at t = 5 s and stays dead. The
  // cluster must detect it, promote a slave, re-dispatch the stranded
  // work, and keep serving: availability < 1, retries > 0, and the
  // post-promotion stretch within 20% of the same window in a clean run.
  core::ExperimentSpec clean = fault_spec(core::SchedulerKind::kMs);
  clean.duration_s = 12.0;
  clean.metrics_tail_start_s = 7.0;  // well past detection + promotion

  core::ExperimentSpec faulted = clean;
  faulted.fault.enabled = true;
  faulted.fault.script.push_back(
      {5 * kSecond, 0, fault::FaultKind::kCrash, 1.0, 1.0});

  const core::ExperimentResult base = core::run_experiment(clean);
  const core::ExperimentResult hit = core::run_experiment(faulted);

  EXPECT_EQ(hit.run.node_crashes, 1u);
  EXPECT_LT(hit.run.availability, 1.0);
  EXPECT_GT(hit.run.availability, 0.5);
  EXPECT_GT(hit.run.redispatches, 0u);
  EXPECT_EQ(hit.run.promotions, 1u);
  // Accounting closes: every request completes or is counted timed out.
  EXPECT_EQ(hit.run.completed + hit.run.timeouts, hit.run.submitted);
  EXPECT_GT(hit.run.metrics.completed_disrupted, 0u);

  // Recovery: after failover settles the (p-1)-node cluster serves the
  // tail window within 20% of the clean run's stretch over that window.
  ASSERT_GT(base.run.metrics.completed_tail, 0u);
  ASSERT_GT(hit.run.metrics.completed_tail, 0u);
  EXPECT_LT(hit.run.metrics.stretch_tail,
            1.20 * base.run.metrics.stretch_tail);
}

TEST(ClusterFault, TotalOutageTimesOutInsteadOfLosingRequests) {
  core::ExperimentSpec spec = fault_spec(core::SchedulerKind::kMs);
  spec.duration_s = 5.0;
  spec.fault.enabled = true;
  for (int node = 0; node < spec.p; ++node)
    spec.fault.script.push_back(
        {3 * kSecond, node, fault::FaultKind::kCrash, 1.0, 1.0});
  const core::ExperimentResult result = core::run_experiment(spec);
  EXPECT_GT(result.run.timeouts, 0u);
  EXPECT_EQ(result.run.completed + result.run.timeouts,
            result.run.submitted);
  EXPECT_LT(result.run.availability, 1.0);
}

TEST(ClusterFault, RedispatchCapBoundsAttemptsExactly) {
  // Permanent total outage: every request still in the system (and every
  // later arrival) hops the failover path exactly max_redispatch times and
  // is then counted timed out — so the two counters are in exact ratio.
  core::ExperimentSpec spec = fault_spec(core::SchedulerKind::kMs);
  spec.duration_s = 5.0;
  spec.fault.enabled = true;
  spec.fault.max_redispatch = 2;
  // Pin the legacy linear backoff preset: the cap accounting must be
  // independent of the delay curve, and this exercises the config path
  // that reproduces the pre-overload fault layer delay for delay.
  spec.fault.redispatch_backoff =
      overload::BackoffConfig::linear(50 * kMillisecond);
  for (int node = 0; node < spec.p; ++node)
    spec.fault.script.push_back(
        {3 * kSecond, node, fault::FaultKind::kCrash, 1.0, 1.0});
  const core::ExperimentResult result = core::run_experiment(spec);
  EXPECT_GT(result.run.timeouts, 0u);
  EXPECT_EQ(result.run.redispatches, 2 * result.run.timeouts);
  EXPECT_EQ(result.run.completed + result.run.timeouts,
            result.run.submitted);

  // A zero cap times out stranded work immediately, no failover hops.
  spec.fault.max_redispatch = 0;
  const core::ExperimentResult none = core::run_experiment(spec);
  EXPECT_GT(none.run.timeouts, 0u);
  EXPECT_EQ(none.run.redispatches, 0u);
  EXPECT_EQ(none.run.completed + none.run.timeouts, none.run.submitted);
}

TEST(ClusterFault, SlaveCrashRecoversThroughChurn) {
  // A slave bounces: dies at 2.5 s, returns at 4 s. Nearly everything
  // should complete (stranded work re-dispatches onto healthy nodes).
  core::ExperimentSpec spec = fault_spec(core::SchedulerKind::kMs);
  spec.fault.enabled = true;
  spec.fault.script.push_back(
      {from_seconds(2.5), 5, fault::FaultKind::kCrash, 1.0, 1.0});
  spec.fault.script.push_back(
      {4 * kSecond, 5, fault::FaultKind::kRecover, 1.0, 1.0});
  const core::ExperimentResult result = core::run_experiment(spec);
  EXPECT_EQ(result.run.node_crashes, 1u);
  EXPECT_EQ(result.run.promotions, 0u);
  EXPECT_EQ(result.run.completed + result.run.timeouts,
            result.run.submitted);
  EXPECT_GT(result.run.completed,
            result.run.submitted - result.run.submitted / 50);
  EXPECT_LT(result.run.availability, 1.0);
  EXPECT_GT(result.run.availability, 0.9);
}

TEST(ClusterFault, DeterministicUnderStochasticChurn) {
  // Seed determinism survives churn: stochastic MTTF/MTTR faults, two
  // identical runs, identical metrics and event counts.
  core::ExperimentSpec spec = fault_spec(core::SchedulerKind::kMs, 11);
  spec.fault.enabled = true;
  spec.fault.mttf_s = 2.0;
  spec.fault.mttr_s = 0.7;
  const core::ExperimentResult a = core::run_experiment(spec);
  const core::ExperimentResult b = core::run_experiment(spec);
  EXPECT_GT(a.run.node_crashes, 0u);
  EXPECT_EQ(a.run.node_crashes, b.run.node_crashes);
  EXPECT_EQ(a.run.events, b.run.events);
  EXPECT_EQ(a.run.redispatches, b.run.redispatches);
  EXPECT_EQ(a.run.timeouts, b.run.timeouts);
  EXPECT_DOUBLE_EQ(a.run.metrics.stretch, b.run.metrics.stretch);
  EXPECT_DOUBLE_EQ(a.run.metrics.stretch_disrupted,
                   b.run.metrics.stretch_disrupted);
  EXPECT_DOUBLE_EQ(a.run.availability, b.run.availability);
}

TEST(ClusterFault, DegradedSlavesRaiseDynamicStretch) {
  core::ExperimentSpec clean = fault_spec(core::SchedulerKind::kMs);
  core::ExperimentSpec degraded = clean;
  degraded.fault.enabled = true;
  for (int node = degraded.m; node < degraded.p; ++node)
    degraded.fault.script.push_back(
        {1 * kSecond, node, fault::FaultKind::kDegrade, 0.25, 0.5});
  const core::ExperimentResult a = core::run_experiment(clean);
  const core::ExperimentResult b = core::run_experiment(degraded);
  EXPECT_GT(b.run.metrics.stretch_dynamic,
            a.run.metrics.stretch_dynamic);
  // Degradation is not a crash: everything still completes.
  EXPECT_EQ(b.run.timeouts, 0u);
  EXPECT_EQ(b.run.completed, b.run.submitted);
}

// --- Fail-slow churn (gray failures) ---

core::ExperimentSpec gray_churn_spec(std::uint64_t seed = 5) {
  core::ExperimentSpec spec = fault_spec(core::SchedulerKind::kMs, seed);
  spec.fault.enabled = true;
  spec.fault.degrade_mttf_s = 3.0;
  spec.fault.degrade_mttr_s = 1.0;
  spec.fault.stall_period_s = 0.5;
  return spec;
}

TEST(GrayFault, DegradeChurnDeterministicInSeed) {
  const core::ExperimentResult a = core::run_experiment(gray_churn_spec());
  const core::ExperimentResult b = core::run_experiment(gray_churn_spec());
  EXPECT_GT(a.run.degrade_events, 0u);
  EXPECT_EQ(a.run.degrade_events, b.run.degrade_events);
  EXPECT_DOUBLE_EQ(a.run.degraded_node_s, b.run.degraded_node_s);
  EXPECT_EQ(a.run.events, b.run.events);
  EXPECT_DOUBLE_EQ(a.run.metrics.stretch, b.run.metrics.stretch);
}

TEST(GrayFault, DegradeChurnSlowsButNeverLosesRequests) {
  core::ExperimentSpec clean = fault_spec(core::SchedulerKind::kMs);
  const core::ExperimentResult a = core::run_experiment(clean);
  const core::ExperimentResult b = core::run_experiment(gray_churn_spec());
  EXPECT_GT(b.run.metrics.stretch, a.run.metrics.stretch);
  // A limping node is not a dead node: no crashes, no downtime, every
  // request completes.
  EXPECT_EQ(b.run.node_crashes, 0u);
  EXPECT_DOUBLE_EQ(b.run.availability, 1.0);
  EXPECT_EQ(b.run.timeouts, 0u);
  EXPECT_EQ(b.run.completed, b.run.submitted);
  EXPECT_GT(b.run.degraded_node_s, 0.0);
}

TEST(GrayFault, DegradeStreamsIsolatedFromCrashStreams) {
  // Stream isolation: switching fail-slow churn on must not move a single
  // stochastic crash (each node's degrade stream is independent of its
  // crash stream).
  core::ExperimentSpec crashes_only =
      fault_spec(core::SchedulerKind::kMs, 11);
  crashes_only.fault.enabled = true;
  crashes_only.fault.mttf_s = 2.0;
  crashes_only.fault.mttr_s = 0.7;
  core::ExperimentSpec both = crashes_only;
  both.fault.degrade_mttf_s = 3.0;
  both.fault.degrade_mttr_s = 1.0;
  const core::ExperimentResult a = core::run_experiment(crashes_only);
  const core::ExperimentResult b = core::run_experiment(both);
  EXPECT_GT(a.run.node_crashes, 0u);
  EXPECT_EQ(a.run.node_crashes, b.run.node_crashes);
  EXPECT_GT(b.run.degrade_events, 0u);
}

// --- Latency watchdog (SlowHealthMonitor) ---

struct WatchdogRig {
  sim::Engine engine;
  sim::OsParams os;
  std::vector<std::unique_ptr<sim::Node>> owned;
  std::vector<sim::Node*> nodes;

  explicit WatchdogRig(int n) {
    for (int i = 0; i < n; ++i) {
      owned.push_back(
          std::make_unique<sim::Node>(engine, os, sim::NodeParams{}, i));
      nodes.push_back(owned.back().get());
    }
  }
};

fault::SlowHealthConfig watchdog_config() {
  fault::SlowHealthConfig config;
  config.enabled = true;
  config.alpha = 0.5;
  config.min_samples = 4;
  return config;
}

TEST(SlowHealth, FlagsRelativeOutlierAndRecovers) {
  WatchdogRig rig(4);
  fault::SlowHealthMonitor mon(4, watchdog_config());
  // Nodes 0-2 complete at stretch 1, node 3 at stretch 10.
  for (int round = 0; round < 8; ++round) {
    for (int node = 0; node < 3; ++node)
      mon.on_completion(node, 100, 100);
    mon.on_completion(3, 1000, 100);
  }
  mon.check_now(rig.nodes);
  EXPECT_EQ(mon.health(3), fault::NodeHealth::kDegraded);
  EXPECT_EQ(mon.health(0), fault::NodeHealth::kHealthy);
  EXPECT_EQ(mon.degrade_transitions(), 1u);
  EXPECT_DOUBLE_EQ(mon.scale()[3], 1.0 + watchdog_config().penalty);
  EXPECT_EQ(mon.degraded_count(), 1);

  // The node heals: its EWMA decays back toward the peer median and the
  // hysteresis band releases it.
  for (int round = 0; round < 64; ++round) mon.on_completion(3, 100, 100);
  mon.check_now(rig.nodes);
  EXPECT_EQ(mon.health(3), fault::NodeHealth::kHealthy);
  EXPECT_EQ(mon.recover_transitions(), 1u);
  EXPECT_DOUBLE_EQ(mon.scale()[3], 1.0);
  EXPECT_EQ(mon.degraded_count(), 0);
}

TEST(SlowHealth, UniformSlownessIsNotFlagged) {
  // The relative-median test is what makes this *gray-failure* detection:
  // under uniform overload every node slows down together and none is an
  // outlier.
  WatchdogRig rig(4);
  fault::SlowHealthMonitor mon(4, watchdog_config());
  for (int round = 0; round < 8; ++round)
    for (int node = 0; node < 4; ++node)
      mon.on_completion(node, 2000, 100);
  mon.check_now(rig.nodes);
  for (int node = 0; node < 4; ++node)
    EXPECT_EQ(mon.health(node), fault::NodeHealth::kHealthy);
  EXPECT_EQ(mon.degrade_transitions(), 0u);
}

TEST(SlowHealth, NodeDownResetsHistoryAndFlag) {
  WatchdogRig rig(4);
  fault::SlowHealthMonitor mon(4, watchdog_config());
  for (int round = 0; round < 8; ++round) {
    for (int node = 0; node < 3; ++node)
      mon.on_completion(node, 100, 100);
    mon.on_completion(3, 1000, 100);
  }
  mon.check_now(rig.nodes);
  ASSERT_EQ(mon.health(3), fault::NodeHealth::kDegraded);

  // A crashed/powered-down node loses its EWMA (it describes a machine
  // that no longer exists) and its degraded flag.
  mon.on_node_down(3);
  EXPECT_EQ(mon.health(3), fault::NodeHealth::kHealthy);
  EXPECT_EQ(mon.degraded_count(), 0);
  // Un-primed after the reset: the next check must not re-flag it off
  // stale history.
  mon.check_now(rig.nodes);
  EXPECT_EQ(mon.health(3), fault::NodeHealth::kHealthy);
}

TEST(SlowHealth, ConfigValidates) {
  fault::SlowHealthConfig config;
  config.alpha = 0.0;
  EXPECT_THROW(fault::SlowHealthMonitor(2, config), std::invalid_argument);
  config = {};
  config.recover_ratio = config.degrade_ratio + 1.0;
  EXPECT_THROW(fault::SlowHealthMonitor(2, config), std::invalid_argument);
  config = {};
  config.min_samples = 0;
  EXPECT_THROW(fault::SlowHealthMonitor(2, config), std::invalid_argument);
  config = {};
  config.penalty = -0.5;
  EXPECT_THROW(fault::SlowHealthMonitor(2, config), std::invalid_argument);
}

TEST(ClusterFault, WatchdogFlagsLimpingNodeInFullRun) {
  // End to end: one slave limps for the whole run; the watchdog must flag
  // it (and only transitions counted by the run result).
  core::ExperimentSpec spec = fault_spec(core::SchedulerKind::kMs, 7);
  spec.fault.enabled = true;
  spec.fault.script.push_back(
      {1 * kSecond, spec.p - 1, fault::FaultKind::kDegrade, 0.1, 0.2});
  spec.slow_health.enabled = true;
  // A short run feeds each node only a few dozen completions, so prime
  // the EWMA faster than the production defaults.
  spec.slow_health.alpha = 0.3;
  spec.slow_health.min_samples = 8;
  const core::ExperimentResult result = core::run_experiment(spec);
  EXPECT_GE(result.run.slow_degraded, 1u);
  // Determinism rides along.
  const core::ExperimentResult again = core::run_experiment(spec);
  EXPECT_EQ(result.run.slow_degraded, again.run.slow_degraded);
  EXPECT_EQ(result.run.slow_recovered, again.run.slow_recovered);
  EXPECT_DOUBLE_EQ(result.run.metrics.stretch, again.run.metrics.stretch);
}

}  // namespace
}  // namespace wsched
