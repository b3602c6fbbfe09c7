// Cross-module integration and regression anchors: the experiment helper's
// knobs, Theorem-1 sizing against the paper's own derived numbers, the
// admission taper, per-receiver dispatch knowledge, and workload
// heterogeneity reaching the scheduler.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/load.hpp"
#include "core/policy.hpp"
#include "core/reservation.hpp"
#include "model/optimize.hpp"
#include "trace/generator.hpp"
#include "trace/trace_stats.hpp"

namespace wsched {
namespace {

TEST(TheoremSizing, MatchesPaperFigure5Derivation) {
  // The paper derives m = 6 for p = 32 (r = 1/60, a = 0.44, lambda = 750)
  // and m = 25 for p = 128 (lambda = 3000). Our optimizer lands within a
  // node or two of both — a strong end-to-end check on the Section 3
  // reconstruction.
  model::Workload w32;
  w32.p = 32;
  w32.lambda = 750;
  w32.mu_h = 1200;
  w32.a = 0.44;
  w32.r = 1.0 / 60.0;
  const int m32 = core::masters_from_theorem(w32);
  EXPECT_GE(m32, 5);
  EXPECT_LE(m32, 9);

  model::Workload w128 = w32;
  w128.p = 128;
  w128.lambda = 3000;
  const int m128 = core::masters_from_theorem(w128);
  EXPECT_GE(m128, 22);
  EXPECT_LE(m128, 32);
}

TEST(TheoremSizing, FallbackWhenUnstable) {
  // Saturated workloads have no stable M/S split; the helper still returns
  // a sane load-proportional master count.
  model::Workload w;
  w.p = 32;
  w.lambda = 4000;  // far beyond capacity at r = 1/160
  w.mu_h = 1200;
  w.a = 0.8;
  w.r = 1.0 / 160.0;
  const int m = core::masters_from_theorem(w);
  EXPECT_GE(m, 1);
  EXPECT_LT(m, 32);
}

TEST(Admission, TapersLinearlyToZeroAtLimit) {
  core::ReservationConfig config;
  config.p = 8;
  config.m = 4;
  config.initial_r = 1.0 / 40.0;
  config.initial_a = 0.5;
  config.routing_alpha = 1.0;  // master_fraction tracks the last sample
  core::ReservationController controller(config);
  const double limit = controller.theta_limit();
  ASSERT_GT(limit, 0.0);

  // Fresh controller starts half way to the limit -> admission in (0, 1].
  controller.record_dynamic_routing(false);
  EXPECT_GT(controller.master_admission(), 0.0);

  // Drive the fraction to the limit: admission must hit zero.
  controller.record_dynamic_routing(true);  // fraction == 1 >= limit
  EXPECT_DOUBLE_EQ(controller.master_admission(), 0.0);
  EXPECT_FALSE(controller.master_allowed());

  // And back to zero: full admission.
  controller.record_dynamic_routing(false);  // fraction == 0
  EXPECT_DOUBLE_EQ(controller.master_admission(), 1.0);
}

TEST(Admission, ZeroLimitMeansNoAdmission) {
  core::ReservationConfig config;
  config.p = 8;
  config.m = 1;
  config.initial_r = 0.9;   // absurdly expensive statics
  config.initial_a = 0.01;  // almost no dynamic traffic
  core::ReservationController controller(config);
  EXPECT_DOUBLE_EQ(controller.theta_limit(), 0.0);
  EXPECT_DOUBLE_EQ(controller.master_admission(), 0.0);
}

TEST(PerReceiverFeedback, DebitsAreLocalToTheReceiver) {
  core::DispatchFeedback feedback(3, 4, kSecond, 0.5);
  feedback.on_sample(std::vector<core::LoadInfo>(4));

  feedback.on_dispatch(0, 2, 1.0);
  EXPECT_LT(feedback.effective(0)[2].cpu_idle_ratio, 1.0);
  // Receivers 1 and 2 are unaware of receiver 0's dispatch.
  EXPECT_DOUBLE_EQ(feedback.effective(1)[2].cpu_idle_ratio, 1.0);
  EXPECT_DOUBLE_EQ(feedback.effective(2)[2].cpu_idle_ratio, 1.0);
}

TEST(PerReceiverFeedback, ViewFallsBackWithoutFeedbacks) {
  core::LoadVec load(2, core::LoadInfo{0.7, 0.6});
  const fault::Membership membership(2, 1, /*failover=*/false);
  core::ClusterView view;
  view.load = &load;
  view.p = 2;
  view.membership = &membership;
  EXPECT_DOUBLE_EQ(view.load_seen_by(0)[0].cpu_idle_ratio, 0.7);

  core::DispatchFeedback feedback(2, 2, kSecond, 0.1);
  feedback.on_sample({core::LoadInfo{0.2, 0.2}, core::LoadInfo{0.3, 0.3}});
  feedback.on_dispatch(1, 0, 1.0);
  view.feedback = &feedback;
  EXPECT_DOUBLE_EQ(view.load_seen_by(1)[0].cpu_idle_ratio, 0.1);
  EXPECT_DOUBLE_EQ(view.load_seen_by(0)[0].cpu_idle_ratio, 0.2);
}

TEST(ScriptMixtures, AdlIsBimodal) {
  trace::GeneratorConfig config;
  config.profile = trace::adl_profile();
  config.lambda = 2000;
  config.duration_s = 20;
  config.seed = 5;
  const trace::Trace t = trace::generate(config);
  int cpu_bound = 0, disk_bound = 0, dynamic = 0;
  for (const auto& rec : t.records) {
    if (!rec.is_dynamic()) continue;
    ++dynamic;
    if (rec.cpu_fraction > 0.5) ++cpu_bound;
    if (rec.cpu_fraction < 0.3) ++disk_bound;
  }
  ASSERT_GT(dynamic, 1000);
  // ADL: ~80% disk-bound catalog fetches, ~20% CPU-bound processing.
  EXPECT_NEAR(static_cast<double>(cpu_bound) / dynamic, 0.20, 0.04);
  EXPECT_NEAR(static_cast<double>(disk_bound) / dynamic, 0.80, 0.04);
}

TEST(ScriptMixtures, WeightedMeanNearProfileMean) {
  for (const auto& profile : trace::experiment_profiles()) {
    double mixture_mean = 0.0, total = 0.0;
    for (const auto& type : profile.cgi_types) {
      mixture_mean += type.weight * type.cpu_fraction;
      total += type.weight;
    }
    ASSERT_GT(total, 0.0) << profile.name;
    mixture_mean /= total;
    EXPECT_NEAR(mixture_mean, profile.cgi_cpu_fraction, 0.12)
        << profile.name;
  }
}

TEST(ExperimentKnobs, TolerancePlumbsThrough) {
  // Different tolerances change routing and therefore the exact metric
  // values; both runs must still be internally deterministic.
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 8;
  spec.lambda = 300;
  spec.duration_s = 4;
  spec.warmup_s = 1;
  spec.kind = core::SchedulerKind::kMs;
  spec.rsrc_tolerance = 0.0;
  const auto tight_a = core::run_experiment(spec);
  const auto tight_b = core::run_experiment(spec);
  EXPECT_DOUBLE_EQ(tight_a.run.metrics.stretch, tight_b.run.metrics.stretch);
  spec.rsrc_tolerance = 0.5;
  const auto loose = core::run_experiment(spec);
  EXPECT_NE(tight_a.run.metrics.stretch, loose.run.metrics.stretch);
}

TEST(ExperimentKnobs, SamplePeriodPlumbsThrough) {
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 8;
  spec.lambda = 300;
  spec.duration_s = 4;
  spec.warmup_s = 1;
  spec.kind = core::SchedulerKind::kMs;
  spec.load_sample_period_s = 0.05;
  const auto fast = core::run_experiment(spec);
  spec.load_sample_period_s = 1.0;
  const auto slow = core::run_experiment(spec);
  EXPECT_NE(fast.run.metrics.stretch, slow.run.metrics.stretch);
}

TEST(FlatBaseline, UnaffectedByMsKnobs) {
  core::ExperimentSpec spec;
  spec.profile = trace::ucb_profile();
  spec.p = 8;
  spec.lambda = 400;
  spec.duration_s = 4;
  spec.warmup_s = 1;
  spec.kind = core::SchedulerKind::kFlat;
  spec.rsrc_tolerance = 0.0;
  const auto a = core::run_experiment(spec);
  spec.rsrc_tolerance = 0.9;
  spec.m = 3;
  const auto b = core::run_experiment(spec);
  EXPECT_DOUBLE_EQ(a.run.metrics.stretch, b.run.metrics.stretch);
}

TEST(SimVsModel, MsStretchWithinAnalyticBand) {
  // Like the flat-model check, but for the full M/S machinery: at a
  // moderate, stable operating point the simulated stretch should land in
  // a reasonable band around the analytic prediction.
  core::ExperimentSpec spec;
  spec.profile = trace::ksu_profile();
  spec.p = 16;
  spec.lambda = 600;
  spec.r = 1.0 / 40.0;
  spec.duration_s = 8;
  spec.warmup_s = 2;
  spec.seed = 42;
  spec.kind = core::SchedulerKind::kMs;
  const auto result = core::run_experiment(spec);
  const auto plan = model::optimize_ms(core::analytic_workload(spec));
  ASSERT_TRUE(plan.has_value());
  EXPECT_GT(result.run.metrics.stretch, 0.8 * plan->stretch);
  EXPECT_LT(result.run.metrics.stretch, 2.5 * plan->stretch);
}

TEST(Saturation, OverloadStillCompletesAndExplodes) {
  // A deliberately saturated run must terminate (finite trace) and show a
  // clearly diverging stretch — the property the fig4 bench relies on when
  // excluding such cells from its summary.
  core::ExperimentSpec spec;
  spec.profile = trace::adl_profile();
  spec.p = 4;
  spec.lambda = 400;  // far over 4 nodes' capacity at r = 1/80
  spec.r = 1.0 / 80.0;
  spec.duration_s = 3;
  spec.warmup_s = 0.5;
  spec.kind = core::SchedulerKind::kMs;
  const auto result = core::run_experiment(spec);
  EXPECT_EQ(result.run.completed, result.run.submitted);
  EXPECT_GT(result.run.metrics.stretch, 5.0);
  EXPECT_GT(result.run.sim_seconds, spec.duration_s);
}

}  // namespace
}  // namespace wsched
