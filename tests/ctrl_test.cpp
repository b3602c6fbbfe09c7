// Control-plane tests (src/ctrl/): estimator convergence on synthetic
// completions, slew-limited theta'_2 retuning and its composition with
// degraded mode, autoscaler hysteresis, and whole-cluster properties —
// ctrl-off runs stay byte-identical to the seed behavior, drained nodes
// migrate their queues (the request ledger closes), and the estimated w
// reaches the decision log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/experiment.hpp"
#include "core/reservation.hpp"
#include "ctrl/autoscaler.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/estimator.hpp"
#include "obs/decision_log.hpp"
#include "trace/profile.hpp"

namespace wsched {
namespace {

// --- Estimator ---

TEST(CtrlEstimator, ReportsPriorsUntilPrimed) {
  ctrl::EstimatorConfig config;
  config.initial_w = 0.42;
  config.initial_r = 1.0 / 40.0;
  ctrl::ParamEstimator est(config);
  EXPECT_DOUBLE_EQ(est.w_hat(), 0.42);
  EXPECT_DOUBLE_EQ(est.r_hat(), 1.0 / 40.0);
  EXPECT_DOUBLE_EQ(est.lambda_hat(), 0.0);
  // One class alone cannot prime r_hat (it is a ratio of both).
  est.on_completion(true, 0.03, 0.9);
  EXPECT_DOUBLE_EQ(est.r_hat(), 1.0 / 40.0);
}

TEST(CtrlEstimator, ConvergesToSyntheticWAndTracksFlip) {
  ctrl::ParamEstimator est(ctrl::EstimatorConfig{});
  for (int i = 0; i < 200; ++i) est.on_completion(true, 0.03, 0.9);
  EXPECT_NEAR(est.w_hat(), 0.9, 1e-3);
  // Workload flip: the same EWMA must re-converge to the new share.
  for (int i = 0; i < 200; ++i) est.on_completion(true, 0.03, 0.1);
  EXPECT_NEAR(est.w_hat(), 0.1, 1e-3);
  EXPECT_EQ(est.dynamic_completions(), 400u);
}

TEST(CtrlEstimator, RHatIsStaticOverDynamicDemand) {
  ctrl::ParamEstimator est(ctrl::EstimatorConfig{});
  for (int i = 0; i < 300; ++i) {
    est.on_completion(false, 1.0 / 1200.0, 0.4);
    est.on_completion(true, 1.0 / 30.0, 0.5);
  }
  // r = mu_c / mu_h = mean static demand / mean dynamic demand = 1/40.
  EXPECT_NEAR(est.r_hat(), 1.0 / 40.0, 1e-4);
  EXPECT_NEAR(est.mu_h_hat(), 1200.0, 1.0);
}

TEST(CtrlEstimator, LambdaHatFoldsArrivalsPerTick) {
  ctrl::ParamEstimator est(ctrl::EstimatorConfig{});
  for (int tick = 0; tick < 50; ++tick) {
    for (int i = 0; i < 25; ++i) est.on_arrival();
    est.tick(0.25);  // 25 arrivals per 0.25 s = 100/s
  }
  EXPECT_NEAR(est.lambda_hat(), 100.0, 1.0);
}

// --- Reservation retuning ---

TEST(CtrlRetune, RespectsSlewLimitAndConverges) {
  core::ReservationConfig config;
  config.p = 32;
  config.m = 4;
  core::ReservationController res(config);
  const double start = res.theta_limit();
  const double target =
      core::ReservationController::theta_limit_for(32, 4, 1.0 / 40.0, 1.0);
  ASSERT_GT(target, start);  // a = 1.0 widens the limit
  res.retune(1.0, 1.0 / 40.0, 0.01);
  EXPECT_NEAR(res.theta_limit(), start + 0.01, 1e-12);
  double prev = res.theta_limit();
  for (int i = 0; i < 100; ++i) {
    res.retune(1.0, 1.0 / 40.0, 0.01);
    EXPECT_LE(std::abs(res.theta_limit() - prev), 0.01 + 1e-12);
    prev = res.theta_limit();
  }
  EXPECT_NEAR(res.theta_limit(), target, 1e-9);
}

TEST(CtrlRetune, ComposesWithDegradedModeAndMembership) {
  core::ReservationConfig config;
  config.p = 8;
  config.m = 2;
  core::ReservationController res(config);
  res.set_degraded(true);
  res.retune(1.0, 1.0 / 40.0, 0.05);
  EXPECT_DOUBLE_EQ(res.theta_limit(), 0.0);  // degraded clamp wins
  res.set_degraded(false);
  res.retune(1.0, 1.0 / 40.0, 0.05);
  EXPECT_GT(res.theta_limit(), 0.0);
  // Masterless cluster: retune holds the reservation closed.
  res.set_membership(8, 0);
  res.retune(1.0, 1.0 / 40.0, 0.05);
  EXPECT_DOUBLE_EQ(res.theta_limit(), 0.0);
}

// --- Autoscaler ---

TEST(CtrlAutoscaler, HysteresisBandHoldsSteady) {
  ctrl::Autoscaler scaler(ctrl::AutoscalerConfig{});
  // Signal inside the [down, up] band: no action, ever.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(scaler.on_signal(0.5, 4, 8, from_seconds(0.1 * i)),
              ctrl::ScaleAction::kNone);
  }
}

TEST(CtrlAutoscaler, DwellPreventsFlapping) {
  ctrl::AutoscalerConfig config;
  config.dwell_s = 2.0;
  ctrl::Autoscaler scaler(config);
  int ups = 0;
  for (int i = 0; i < 20; ++i) {  // 2 s of saturated samples at 100 ms
    if (scaler.on_signal(1.0, 4, 8, from_seconds(0.1 * i)) ==
        ctrl::ScaleAction::kUp)
      ++ups;
  }
  EXPECT_EQ(ups, 1);  // one action per dwell window, not twenty
  // After the dwell expires the next saturated sample may act again.
  EXPECT_EQ(scaler.on_signal(1.0, 5, 8, from_seconds(2.5)),
            ctrl::ScaleAction::kUp);
}

TEST(CtrlAutoscaler, RespectsBounds) {
  ctrl::AutoscalerConfig config;
  config.dwell_s = 0.0;
  config.min_powered = 2;
  ctrl::Autoscaler scaler(config);
  // Saturated but already at full power: nothing to switch on.
  EXPECT_EQ(scaler.on_signal(1.0, 8, 8, from_seconds(0.0)),
            ctrl::ScaleAction::kNone);
  // Idle but at the floor: nothing to switch off.
  ctrl::Autoscaler low(config);
  EXPECT_EQ(low.on_signal(0.0, 2, 8, from_seconds(0.0)),
            ctrl::ScaleAction::kNone);
  EXPECT_EQ(low.on_signal(0.0, 3, 8, from_seconds(1.0)),
            ctrl::ScaleAction::kDown);
}

// --- Control loop ---

TEST(CtrlLoop, PlansRetuneAndScaleFromTelemetry) {
  ctrl::CtrlConfig config;
  config.enabled = true;
  config.autoscale = true;
  config.dwell_s = 0.0;
  ctrl::ParamEstimator est(ctrl::EstimatorConfig{});
  for (int i = 0; i < 50; ++i) {
    est.on_completion(false, 1.0 / 1200.0, 0.4);
    est.on_completion(true, 1.0 / 30.0, 0.7);
  }
  ctrl::ControlLoop loop(config, 8);
  ctrl::Telemetry busy;
  busy.busy = {0.95, 0.95, 0.95, 0.95};
  busy.a_hat = 0.5;
  busy.powered = 4;
  busy.masters = 1;
  busy.now = from_seconds(1.0);
  const ctrl::Actions actions = loop.plan(busy, est);
  EXPECT_TRUE(actions.retune);
  EXPECT_NEAR(actions.r, 1.0 / 40.0, 1e-3);
  EXPECT_EQ(actions.scale, ctrl::ScaleAction::kUp);

  ctrl::Telemetry idle = busy;
  idle.busy = {0.02, 0.02, 0.02, 0.02};
  idle.now = from_seconds(10.0);
  ctrl::ControlLoop down_loop(config, 8);
  ctrl::Actions down;
  // The smoothed signal needs a few idle samples to fall below the band.
  for (int i = 0; i < 10; ++i) {
    idle.now = from_seconds(10.0 + 0.5 * i);
    down = down_loop.plan(idle, est);
  }
  EXPECT_EQ(down.scale, ctrl::ScaleAction::kDown);
}

// --- Whole-cluster properties ---

core::ExperimentSpec ctrl_spec(std::uint64_t seed = 7) {
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

TEST(ClusterCtrl, DisabledConfigIsInertAndDeterministic) {
  // The ctrl-off contract: a default (disabled) CtrlConfig constructs
  // nothing — same events, same metrics, no ctrl statistics, full-power
  // energy accounting.
  const core::ExperimentResult a = core::run_experiment(ctrl_spec());
  const core::ExperimentResult b = core::run_experiment(ctrl_spec());
  EXPECT_EQ(a.run.events, b.run.events);
  EXPECT_DOUBLE_EQ(a.run.metrics.stretch, b.run.metrics.stretch);
  EXPECT_FALSE(a.run.ctrl_enabled);
  EXPECT_EQ(a.run.ctrl_retunes, 0u);
  EXPECT_EQ(a.run.ctrl_scale_downs, 0u);
  EXPECT_EQ(a.run.powered_min, 8);
  EXPECT_NEAR(a.run.energy_node_s, 8.0 * a.run.sim_seconds, 1e-6);
}

TEST(ClusterCtrl, EnabledLoopRetunesAndStampsDecisions) {
  obs::DecisionLog decisions;
  core::ExperimentSpec spec = ctrl_spec();
  spec.ctrl.enabled = true;
  spec.observer.decisions = &decisions;
  const core::ExperimentResult result = core::run_experiment(spec);
  EXPECT_TRUE(result.run.ctrl_enabled);
  EXPECT_GT(result.run.ctrl_retunes, 0u);
  EXPECT_GT(result.run.ctrl_w_hat, 0.0);
  EXPECT_LT(result.run.ctrl_w_hat, 1.0);
  EXPECT_GT(result.run.ctrl_r_hat, 0.0);
  // Every RSRC-routed decision carries the live estimate; the run is
  // ctrl-on, so at least the dynamic picks must be stamped.
  bool stamped = false;
  for (const obs::DecisionRecord& rec : decisions.records())
    if (rec.w_hat >= 0.0 && rec.theta_eff >= 0.0) stamped = true;
  EXPECT_TRUE(stamped);

  // And the ctrl-off run never stamps: the columns stay at their -1
  // sentinel so artifacts diff clean against pre-ctrl logs.
  obs::DecisionLog off_decisions;
  core::ExperimentSpec off = ctrl_spec();
  off.observer.decisions = &off_decisions;
  core::run_experiment(off);
  ASSERT_GT(off_decisions.size(), 0u);
  for (const obs::DecisionRecord& rec : off_decisions.records()) {
    EXPECT_DOUBLE_EQ(rec.w_hat, -1.0);
    EXPECT_DOUBLE_EQ(rec.theta_eff, -1.0);
  }
}

TEST(ClusterCtrl, DrainedNodesMigrateJobsAndLedgerCloses) {
  core::ExperimentSpec spec = ctrl_spec();
  spec.lambda = 200;  // light load: the scaler powers slaves down
  spec.ctrl.enabled = true;
  spec.ctrl.autoscale = true;
  spec.ctrl.interval_s = 0.25;
  spec.ctrl.scale_down_util = 0.5;
  spec.ctrl.dwell_s = 0.5;
  spec.ctrl.min_powered = 2;
  const core::ExperimentResult result = core::run_experiment(spec);
  EXPECT_GE(result.run.ctrl_scale_downs, 1u);
  EXPECT_LT(result.run.powered_min, 8);
  EXPECT_GE(result.run.powered_min, 2);
  // Accounting closure: every request submitted to a later-drained node
  // was re-dispatched and completed; nothing vanishes with the power.
  EXPECT_EQ(result.run.completed + result.run.timeouts + result.run.shed +
                result.run.abandoned,
            result.run.submitted);
  // Powering nodes down must show up in the energy ledger.
  EXPECT_LT(result.run.energy_node_s, 8.0 * result.run.sim_seconds - 1.0);
}

TEST(ClusterCtrl, AutoscaleAndFaultLayerAreMutuallyExclusive) {
  core::ExperimentSpec spec = ctrl_spec();
  spec.fault.enabled = true;
  spec.ctrl.enabled = true;
  spec.ctrl.autoscale = true;
  EXPECT_THROW(core::run_experiment(spec), std::invalid_argument);
}

/// The message run_experiment refuses `spec` with ("" if it runs).
std::string refusal(const core::ExperimentSpec& spec) {
  try {
    core::run_experiment(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ClusterCtrl, MasterRetargetAndFaultLayerAreMutuallyExclusive) {
  // Under the fault layer the failover promotion rule owns the roles; a
  // control-plane retarget would resize theta'_2 behind its back.
  core::ExperimentSpec spec = ctrl_spec();
  spec.fault.enabled = true;
  spec.ctrl.enabled = true;
  spec.ctrl.retarget_masters = true;
  const std::string what = refusal(spec);
  EXPECT_NE(what.find("retarget_masters"), std::string::npos) << what;
  EXPECT_NE(what.find("fault.enabled"), std::string::npos) << what;
}

TEST(ClusterCtrl, MasterRetargetWithoutAutoscaleIsRefused) {
  // The loop retargets only alongside its power actions, so alone it would
  // silently do nothing.
  core::ExperimentSpec spec = ctrl_spec();
  spec.ctrl.enabled = spec.ctrl.retarget_masters = true;
  EXPECT_NE(refusal(spec).find("ctrl.retarget_masters requires ctrl.autoscale"),
            std::string::npos)
      << refusal(spec);
}

// --- Flip / diurnal trace machinery the drills depend on ---

TEST(CtrlTrace, FlipSplicesProfilesSeamlessly) {
  core::ExperimentSpec spec = ctrl_spec();
  spec.duration_s = 6.0;
  spec.flip_at_s = 3.0;
  spec.profile.cgi_types.clear();
  spec.profile.cgi_cpu_fraction = 0.95;
  spec.profile.cgi_cpu_spread = 0.02;
  spec.flip_profile = spec.profile;
  spec.flip_profile.cgi_cpu_fraction = 0.10;
  const trace::Trace trace = core::generate_trace(spec);
  ASSERT_GT(trace.records.size(), 100u);
  double pre_sum = 0.0, post_sum = 0.0;
  int pre_n = 0, post_n = 0;
  Time prev = 0;
  bool sorted = true;
  for (const trace::TraceRecord& rec : trace.records) {
    if (rec.arrival < prev) sorted = false;
    prev = rec.arrival;
    if (rec.cls != trace::RequestClass::kDynamic) continue;
    if (to_seconds(rec.arrival) < 3.0) {
      pre_sum += rec.cpu_fraction;
      ++pre_n;
    } else {
      post_sum += rec.cpu_fraction;
      ++post_n;
    }
  }
  EXPECT_TRUE(sorted);  // the splice must not reorder arrivals
  ASSERT_GT(pre_n, 10);
  ASSERT_GT(post_n, 10);
  EXPECT_GT(pre_sum / pre_n, 0.85);
  EXPECT_LT(post_sum / post_n, 0.20);
}

TEST(CtrlTrace, DiurnalModulationShapesArrivals) {
  core::ExperimentSpec spec = ctrl_spec();
  spec.duration_s = 8.0;
  spec.lambda = 800;
  spec.diurnal = true;
  spec.diurnal_period_s = 2.0;
  spec.diurnal_amplitude = 0.8;
  const trace::Trace trace = core::generate_trace(spec);
  // sin > 0 on the first half of each period: arrivals there must
  // dominate the troughs by roughly (1 + A) / (1 - A).
  std::size_t peak = 0, trough = 0;
  for (const trace::TraceRecord& rec : trace.records) {
    const double phase = std::fmod(to_seconds(rec.arrival), 2.0);
    (phase < 1.0 ? peak : trough)++;
  }
  ASSERT_GT(trough, 0u);
  EXPECT_GT(static_cast<double>(peak) / static_cast<double>(trough), 1.5);

  // The off switch makes the knobs inert: two disabled configs with
  // different period/amplitude draw identical traces (no thinning draws
  // are consumed at all).
  core::ExperimentSpec off = spec;
  off.diurnal = false;
  core::ExperimentSpec off2 = off;
  off2.diurnal_period_s = 97.0;
  off2.diurnal_amplitude = 0.1;
  const trace::Trace base = core::generate_trace(off);
  const trace::Trace base2 = core::generate_trace(off2);
  ASSERT_EQ(base.records.size(), base2.records.size());
  for (std::size_t i = 0; i < base.records.size(); ++i)
    ASSERT_EQ(base.records[i].arrival, base2.records[i].arrival);
}

}  // namespace
}  // namespace wsched
