// Tests for the scheduling layer: load monitoring, dispatch feedback, the
// RSRC cost model, the reservation controller (including its
// self-stabilization), and the dispatch policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/load.hpp"
#include "core/policy.hpp"
#include "core/reservation.hpp"
#include "core/rsrc.hpp"
#include "overload/breaker.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"

namespace wsched::core {
namespace {

TEST(Rsrc, Equation5) {
  LoadInfo load{0.5, 0.25};
  // w/CPUIdle + (1-w)/DiskAvail
  EXPECT_DOUBLE_EQ(rsrc_cost(1.0, load), 2.0);
  EXPECT_DOUBLE_EQ(rsrc_cost(0.0, load), 4.0);
  EXPECT_DOUBLE_EQ(rsrc_cost(0.5, load), 1.0 + 2.0);
}

TEST(Rsrc, IdleNodeCostsOne) {
  LoadInfo idle{1.0, 1.0};
  for (double w : {0.0, 0.3, 0.5, 0.9, 1.0})
    EXPECT_DOUBLE_EQ(rsrc_cost(w, idle), 1.0);
}

TEST(Rsrc, HeterogeneousSpeedup) {
  LoadInfo load{0.5, 0.5};
  // A 2x CPU node looks half as costly for CPU-bound work.
  EXPECT_DOUBLE_EQ(rsrc_cost(1.0, load, 2.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(rsrc_cost(0.0, load, 2.0, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(rsrc_cost(0.5, load, 1.0, 1.0), rsrc_cost(0.5, load));
}

TEST(Rsrc, PickChoosesMinimum) {
  std::vector<LoadInfo> load = {
      {0.9, 0.9}, {0.2, 0.9}, {0.95, 0.95}, {0.5, 0.5}};
  std::vector<int> candidates = {0, 1, 2, 3};
  Rng rng(3);
  // With tolerance 0, CPU-bound work picks the strictly cheapest node 2.
  EXPECT_EQ(candidates[pick_min_rsrc(1.0, candidates, load, rng, 0.0)], 2);
  // With the default tolerance, nodes 0 and 2 are near-ties (1.11 vs
  // 1.05): the pick spreads across exactly those two.
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 1000; ++i)
    ++counts[candidates[pick_min_rsrc(1.0, candidates, load, rng)]];
  EXPECT_EQ(counts[1], 0);
  EXPECT_EQ(counts[3], 0);
  EXPECT_GT(counts[0], 300);
  EXPECT_GT(counts[2], 300);
}

TEST(Rsrc, PickRespectsCandidateSubset) {
  std::vector<LoadInfo> load = {{1.0, 1.0}, {0.1, 0.1}, {0.2, 0.2}};
  std::vector<int> candidates = {1, 2};
  Rng rng(5);
  // Node 0 is idle but not a candidate.
  EXPECT_EQ(candidates[pick_min_rsrc(0.5, candidates, load, rng)], 2);
}

TEST(Rsrc, TieBreakingIsUniformish) {
  std::vector<LoadInfo> load(4);  // all identical (idle)
  std::vector<int> candidates = {0, 1, 2, 3};
  Rng rng(7);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i)
    ++counts[candidates[pick_min_rsrc(0.5, candidates, load, rng)]];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Rsrc, EmptyCandidatesThrow) {
  std::vector<LoadInfo> load(1);
  std::vector<int> none;
  Rng rng(1);
  EXPECT_THROW(pick_min_rsrc(0.5, none, load, rng), std::invalid_argument);
}

TEST(Rsrc, SoaPickMatchesPerNodeCosts) {
  // The SoA fast path inside pick_min_rsrc must agree, node for node and
  // draw for draw, with costs computed through the per-node rsrc_cost
  // API on the same data.
  std::vector<LoadInfo> rows(16);
  Rng fill(11);
  for (auto& info : rows) {
    info.cpu_idle_ratio = 0.05 + 0.95 * fill.uniform();
    info.disk_avail_ratio = 0.05 + 0.95 * fill.uniform();
  }
  const LoadVec load = rows;  // implicit AoS -> SoA conversion
  std::vector<int> candidates(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    candidates[i] = static_cast<int>(i);
  for (const double w : {0.0, 0.3, 0.7, 1.0}) {
    // Reference pick: scalar costs + the same reservoir tie-break with an
    // identically seeded RNG.
    std::size_t expected = 0;
    double best = rsrc_cost(w, rows[0]);
    for (std::size_t i = 1; i < rows.size(); ++i) {
      const double cost = rsrc_cost(w, rows[i]);
      if (cost < best) {
        best = cost;
        expected = i;
      }
    }
    Rng rng(23);
    EXPECT_EQ(pick_min_rsrc(w, candidates, load, rng, 0.0), expected)
        << "w=" << w;
  }
}

TEST(LoadVecApi, ProxyAndDataPointersAgree) {
  LoadVec load(3);
  load[1] = LoadInfo{0.25, 0.75};
  load[2].cpu_idle_ratio = 0.5;
  load[2].disk_avail_ratio = 0.125;
  // Value reads round-trip through the proxy...
  const LoadInfo mid = load[1];
  EXPECT_DOUBLE_EQ(mid.cpu_idle_ratio, 0.25);
  EXPECT_DOUBLE_EQ(mid.disk_avail_ratio, 0.75);
  // ...and the raw arrays the hot loops walk see the same values.
  EXPECT_DOUBLE_EQ(load.cpu_idle_data()[2], 0.5);
  EXPECT_DOUBLE_EQ(load.disk_avail_data()[2], 0.125);
  EXPECT_DOUBLE_EQ(load.cpu_idle_data()[0], 1.0);  // default idle
  EXPECT_EQ(load.size(), 3u);
}

TEST(LoadMonitor, TracksBusyNode) {
  sim::Engine engine;
  sim::OsParams os;
  sim::Node busy(engine, os, {}, 0);
  sim::Node idle(engine, os, {}, 1);
  LoadMonitor monitor(engine, {&busy, &idle}, 100 * kMillisecond);
  monitor.start();
  engine.schedule_at(0, [&] {
    sim::Job job;
    job.request.cls = trace::RequestClass::kStatic;
    job.request.service_demand = 300 * kMillisecond;
    job.request.cpu_fraction = 1.0;
    job.request.mem_pages = 1;
    busy.submit(job);
  });
  engine.run_until(250 * kMillisecond);
  EXPECT_LT(monitor.info(0).cpu_idle_ratio, 0.05);
  EXPECT_DOUBLE_EQ(monitor.info(1).cpu_idle_ratio, 1.0);
  EXPECT_DOUBLE_EQ(monitor.info(0).disk_avail_ratio, 1.0);
}

TEST(LoadMonitor, RatiosFloored) {
  sim::Engine engine;
  sim::OsParams os;
  sim::Node node(engine, os, {}, 0);
  LoadMonitor monitor(engine, {&node}, 50 * kMillisecond, 0.07);
  monitor.start();
  engine.schedule_at(0, [&] {
    sim::Job job;
    job.request.service_demand = kSecond;
    job.request.cpu_fraction = 1.0;
    node.submit(job);
  });
  engine.run_until(200 * kMillisecond);
  EXPECT_GE(monitor.info(0).cpu_idle_ratio, 0.07);
}

TEST(LoadMonitor, InvalidPeriodThrows) {
  sim::Engine engine;
  EXPECT_THROW(LoadMonitor(engine, {}, 0), std::invalid_argument);
}

TEST(DispatchFeedback, DebitsDispatchedWork) {
  DispatchFeedback feedback(1, 2, kSecond, 0.1);  // 100ms mean demand
  std::vector<LoadInfo> fresh(2);
  feedback.on_sample(fresh);
  EXPECT_DOUBLE_EQ(feedback.effective(0)[0].cpu_idle_ratio, 1.0);
  feedback.on_dispatch(0, 0, 1.0);
  // One 100ms CPU job against a 1s window: idle drops by 0.1.
  EXPECT_NEAR(feedback.effective(0)[0].cpu_idle_ratio, 0.9, 1e-9);
  EXPECT_DOUBLE_EQ(feedback.effective(0)[0].disk_avail_ratio, 1.0);
  EXPECT_DOUBLE_EQ(feedback.effective(0)[1].cpu_idle_ratio, 1.0);
}

TEST(DispatchFeedback, SplitsByW) {
  DispatchFeedback feedback(1, 1, kSecond, 0.2);
  feedback.on_sample({LoadInfo{}});
  feedback.on_dispatch(0, 0, 0.25);
  EXPECT_NEAR(feedback.effective(0)[0].cpu_idle_ratio, 1.0 - 0.05, 1e-9);
  EXPECT_NEAR(feedback.effective(0)[0].disk_avail_ratio, 1.0 - 0.15, 1e-9);
}

TEST(DispatchFeedback, SampleClearsDebits) {
  DispatchFeedback feedback(1, 1, kSecond, 0.5);
  feedback.on_sample({LoadInfo{}});
  feedback.on_dispatch(0, 0, 1.0);
  EXPECT_LT(feedback.effective(0)[0].cpu_idle_ratio, 1.0);
  feedback.on_sample({LoadInfo{0.8, 0.9}});
  EXPECT_DOUBLE_EQ(feedback.effective(0)[0].cpu_idle_ratio, 0.8);
  EXPECT_DOUBLE_EQ(feedback.effective(0)[0].disk_avail_ratio, 0.9);
}

TEST(DispatchFeedback, FlooredAndDemandLearned) {
  DispatchFeedback feedback(1, 1, kSecond, 10.0,
                            DispatchFeedback::DemandScope::kShared, 0.05);
  feedback.on_sample({LoadInfo{}});
  for (int i = 0; i < 10; ++i) feedback.on_dispatch(0, 0, 1.0);
  EXPECT_DOUBLE_EQ(feedback.effective(0)[0].cpu_idle_ratio, 0.05);
  for (int i = 0; i < 500; ++i)
    feedback.note_dynamic_demand(0, from_seconds(0.02));
  EXPECT_NEAR(feedback.demand_estimate_s(0), 0.02, 0.001);
}

/// Eager reference for dispatch feedback, written out from its definition:
/// every receiver holds a full copy of the load picture, every sample
/// overwrites all copies, a dispatch debits the receiver's copy by
/// demand / window, and a completion moves the demand EWMA of every
/// receiver (shared) or of the serving receiver only.
struct EagerFeedback {
  std::vector<LoadVec> views;
  std::vector<double> demand_s;
  Time window;
  bool shared;
  double floor = 0.01;

  EagerFeedback(std::size_t p, Time window, double demand, bool shared)
      : views(p, LoadVec(p)), demand_s(p, demand), window(window),
        shared(shared) {}
  void sample(const LoadVec& fresh) {
    for (LoadVec& view : views) view = fresh;
  }
  void report(std::size_t r, std::size_t node, const LoadInfo& info) {
    views[r][node] = info;
  }
  void dispatch(std::size_t r, std::size_t node, double w) {
    const double frac = demand_s[r] / to_seconds(window);
    LoadRef info = views[r][node];
    info.cpu_idle_ratio = std::max(floor, info.cpu_idle_ratio - w * frac);
    info.disk_avail_ratio =
        std::max(floor, info.disk_avail_ratio - (1.0 - w) * frac);
  }
  void complete(std::size_t r, Time demand) {
    for (std::size_t i = 0; i < demand_s.size(); ++i)
      if (shared || i == r)
        demand_s[i] += 0.05 * (to_seconds(demand) - demand_s[i]);
  }
};

/// Bitwise view comparison: the count of differing ratios.
int differing_ratios(const LoadVec& a, const LoadVec& b) {
  if (a.size() != b.size()) return -1;
  int differ = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    differ += (a[i].cpu_idle_ratio != b[i].cpu_idle_ratio) +
              (a[i].disk_avail_ratio != b[i].disk_avail_ratio);
  return differ;
}

/// Drives DispatchFeedback and the eager reference through one seeded
/// script of samples (or, per receiver, load reports), dispatches,
/// completions and reads, comparing every read view bit for bit.
void expect_feedback_matches_eager(bool shared) {
  constexpr std::size_t kP = 6;
  constexpr Time kWindow = 100 * kMillisecond;
  EagerFeedback eager(kP, kWindow, 0.04, shared);
  DispatchFeedback feedback(kP, kP, kWindow, 0.04,
                            shared
                                ? DispatchFeedback::DemandScope::kShared
                                : DispatchFeedback::DemandScope::kPerReceiver);
  Rng script(shared ? 91 : 92);
  const auto random_info = [&] {
    return LoadInfo{0.01 + 0.99 * script.uniform(),
                    0.01 + 0.99 * script.uniform()};
  };
  int reads = 0;
  for (int step = 0; step < 20'000; ++step) {
    const double op = script.uniform();
    const auto r = static_cast<std::size_t>(script.uniform_int(kP));
    const auto node = static_cast<std::size_t>(script.uniform_int(kP));
    if (op < 0.03) {
      if (shared) {
        LoadVec fresh(kP);
        for (std::size_t i = 0; i < kP; ++i) fresh[i] = random_info();
        eager.sample(fresh);
        feedback.on_sample(fresh);
      } else {
        const LoadInfo info = random_info();
        eager.report(r, node, info);
        feedback.on_node_report(r, node, info);
      }
    } else if (op < 0.60) {
      const double w = script.uniform();
      eager.dispatch(r, node, w);
      feedback.on_dispatch(r, node, w);
    } else if (op < 0.90) {
      const Time demand = from_seconds(0.2 * script.uniform());
      eager.complete(r, demand);
      feedback.note_dynamic_demand(r, demand);
    } else {
      ++reads;
      ASSERT_EQ(differing_ratios(feedback.effective(r), eager.views[r]), 0)
          << "step " << step << " receiver " << r;
    }
  }
  EXPECT_GT(reads, 1000);
  for (std::size_t r = 0; r < kP; ++r) {
    EXPECT_EQ(differing_ratios(feedback.effective(r), eager.views[r]), 0)
        << "receiver " << r;
    EXPECT_EQ(feedback.demand_estimate_s(r), eager.demand_s[r])
        << "receiver " << r;
  }
}

TEST(DispatchFeedback, SharedSampleMatchesEagerCopies) {
  expect_feedback_matches_eager(/*shared=*/true);
}

TEST(DispatchFeedback, PerReceiverReportsMatchEagerCopies) {
  expect_feedback_matches_eager(/*shared=*/false);
}

TEST(Reservation, ThetaLimitFormula) {
  // theta'_2 = m/p - r(p-m)/(a p)
  EXPECT_NEAR(ReservationController::theta_limit_for(32, 8, 1.0 / 40, 0.4),
              8.0 / 32 - (1.0 / 40) * 24 / (0.4 * 32), 1e-12);
  // Clamped to [0, 1].
  EXPECT_DOUBLE_EQ(
      ReservationController::theta_limit_for(32, 1, 0.5, 0.01), 0.0);
  EXPECT_DOUBLE_EQ(
      ReservationController::theta_limit_for(2, 2, 1.0 / 40, 0.4), 1.0);
}

TEST(Reservation, InitializedFromPriors) {
  ReservationConfig config;
  config.p = 32;
  config.m = 8;
  config.initial_r = 1.0 / 40;
  config.initial_a = 0.4;
  ReservationController controller(config);
  EXPECT_NEAR(controller.theta_limit(),
              ReservationController::theta_limit_for(32, 8, 1.0 / 40, 0.4),
              1e-12);
  EXPECT_TRUE(controller.master_allowed());
}

TEST(Reservation, BadConfigThrows) {
  ReservationConfig config;
  config.p = 4;
  config.m = 0;
  EXPECT_THROW(ReservationController{config}, std::invalid_argument);
  config.m = 5;
  EXPECT_THROW(ReservationController{config}, std::invalid_argument);
}

TEST(Reservation, EstimatesArrivalMix) {
  ReservationConfig config;
  config.p = 16;
  config.m = 4;
  ReservationController controller(config);
  Rng rng(31);
  for (int i = 0; i < 20000; ++i)
    controller.record_arrival(rng.bernoulli(0.25));
  controller.update();
  EXPECT_NEAR(controller.a_hat(), 0.25 / 0.75, 0.08);
}

TEST(Reservation, EstimatesRFromResponses) {
  ReservationConfig config;
  config.p = 16;
  config.m = 4;
  ReservationController controller(config);
  for (int i = 0; i < 1000; ++i) {
    controller.record_completion(false, kMillisecond);
    controller.record_completion(true, 40 * kMillisecond);
  }
  controller.update();
  EXPECT_NEAR(controller.r_hat(), 1.0 / 40.0, 1e-3);
}

TEST(Reservation, RoutingGateEngagesAndReleases) {
  ReservationConfig config;
  config.p = 8;
  config.m = 4;
  config.initial_r = 1.0 / 40;
  config.initial_a = 0.5;
  config.routing_alpha = 0.2;  // fast loop for the test
  ReservationController controller(config);
  ASSERT_TRUE(controller.master_allowed());
  // Route everything to masters: the gate must close.
  int closed_after = -1;
  for (int i = 0; i < 100; ++i) {
    controller.record_dynamic_routing(true);
    if (!controller.master_allowed()) {
      closed_after = i;
      break;
    }
  }
  ASSERT_GE(closed_after, 0) << "gate never closed";
  // Then route to slaves: the gate must reopen.
  int reopened_after = -1;
  for (int i = 0; i < 100; ++i) {
    controller.record_dynamic_routing(false);
    if (controller.master_allowed()) {
      reopened_after = i;
      break;
    }
  }
  EXPECT_GE(reopened_after, 0) << "gate never reopened";
}

TEST(Reservation, SelfStabilizesFromExtremeInitialValues) {
  // Section 4's argument: theta'_2 converges regardless of its start.
  // Feed identical measurements into two controllers with opposite priors;
  // their limits must converge to the same value.
  ReservationConfig low;
  low.p = 32;
  low.m = 8;
  low.initial_r = 1.0;     // absurdly high -> theta starts at 0
  low.initial_a = 0.01;
  ReservationConfig high = low;
  high.initial_r = 1e-4;   // absurdly low -> theta starts at m/p
  high.initial_a = 10.0;
  ReservationController a(low), b(high);
  Rng rng(37);
  for (int i = 0; i < 5000; ++i) {
    const bool dynamic = rng.bernoulli(0.3);
    a.record_arrival(dynamic);
    b.record_arrival(dynamic);
    const Time response = dynamic ? 50 * kMillisecond : kMillisecond;
    a.record_completion(dynamic, response);
    b.record_completion(dynamic, response);
    if (i % 100 == 0) {
      a.update();
      b.update();
    }
  }
  a.update();
  b.update();
  EXPECT_NEAR(a.theta_limit(), b.theta_limit(), 1e-3);
  EXPECT_GT(a.theta_limit(), 0.0);
}

// --- dispatch policies ---

struct PolicyHarness {
  LoadVec load;
  Rng rng{71};
  ReservationConfig res_cfg;
  std::unique_ptr<ReservationController> reservation;
  /// The static split: the fault layer is off.
  fault::Membership membership;
  ClusterView view;

  PolicyHarness(int p, int m)
      : load(static_cast<std::size_t>(p)),
        membership(p, m, /*failover=*/false) {
    res_cfg.p = p;
    res_cfg.m = m;
    res_cfg.initial_r = 1.0 / 40;
    res_cfg.initial_a = 0.5;
    reservation = std::make_unique<ReservationController>(res_cfg);
    view.load = &load;
    view.p = p;
    view.membership = &membership;
    view.reservation = reservation.get();
    view.rng = &rng;
  }

  trace::TraceRecord request(bool dynamic, double w = 0.9) {
    trace::TraceRecord rec;
    rec.cls = dynamic ? trace::RequestClass::kDynamic
                      : trace::RequestClass::kStatic;
    rec.cpu_fraction = w;
    rec.service_demand = kMillisecond;
    return rec;
  }
};

TEST(Policy, FlatUsesAllNodesUniformly) {
  PolicyHarness h(8, 2);
  auto flat = make_flat();
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    const Decision d = flat->route(h.request(i % 2 == 0), h.view);
    ASSERT_GE(d.node, 0);
    ASSERT_LT(d.node, 8);
    EXPECT_FALSE(d.remote);
    EXPECT_LT(d.rsrc_w, 0.0);
    ++counts[static_cast<std::size_t>(d.node)];
  }
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(Policy, MsStaticOnlyOnMasters) {
  PolicyHarness h(8, 3);
  auto ms = make_ms();
  for (int i = 0; i < 2000; ++i) {
    const Decision d = ms->route(h.request(false), h.view);
    EXPECT_LT(d.node, 3);
    EXPECT_FALSE(d.remote);
  }
}

TEST(Policy, MsDynamicPrefersIdleSlaves) {
  PolicyHarness h(4, 1);
  // Slave 2 is hammered; slaves 1 and 3 are idle.
  h.load[2] = LoadInfo{0.05, 0.05};
  auto ms = make_ms();
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 300; ++i)
    ++counts[static_cast<std::size_t>(ms->route(h.request(true), h.view).node)];
  EXPECT_EQ(counts[2], 0) << "busy slave must never win min-RSRC";
  // The idle master legitimately takes up to theta'_2 of the dynamic work;
  // the idle slaves take the bulk.
  EXPECT_GT(counts[1] + counts[3], 200);
  EXPECT_LT(counts[0], 100);
}

TEST(Policy, MsRemoteFlagSetWhenExecutingElsewhere) {
  PolicyHarness h(4, 1);
  auto ms = make_ms();
  int remote = 0, local = 0;
  for (int i = 0; i < 500; ++i) {
    const Decision d = ms->route(h.request(true), h.view);
    (d.remote ? remote : local)++;
    if (d.remote) {
      EXPECT_NE(d.node, 0);  // single master is the receiver
    }
  }
  EXPECT_GT(remote, 0);
}

TEST(Policy, MsRespectsClosedReservationGate) {
  PolicyHarness h(4, 2);
  // Force the gate closed; the feedback loop may legitimately reopen it as
  // slave routings accumulate, so assert the contract: whenever the gate
  // is closed at decision time, the request goes to a slave.
  for (int i = 0; i < 2000; ++i)
    h.reservation->record_dynamic_routing(true);
  ASSERT_FALSE(h.reservation->master_allowed());
  auto ms = make_ms();
  int closed_decisions = 0;
  for (int i = 0; i < 400; ++i) {
    const bool closed = !h.reservation->master_allowed();
    const Decision d = ms->route(h.request(true), h.view);
    if (closed) {
      ++closed_decisions;
      EXPECT_GE(d.node, 2) << "dynamic request crossed a closed gate";
    }
  }
  EXPECT_GT(closed_decisions, 50);
}

TEST(Policy, MsNrIgnoresReservationGate) {
  PolicyHarness h(4, 2);
  for (int i = 0; i < 2000; ++i)
    h.reservation->record_dynamic_routing(true);
  ASSERT_FALSE(h.reservation->master_allowed());
  // Make masters idle, slaves busy: nr should pick masters anyway.
  h.load[2] = LoadInfo{0.05, 0.05};
  h.load[3] = LoadInfo{0.05, 0.05};
  auto nr = make_ms({.reserve = false});
  int to_masters = 0;
  for (int i = 0; i < 500; ++i)
    if (nr->route(h.request(true), h.view).node < 2) ++to_masters;
  EXPECT_GT(to_masters, 450);
}

TEST(Policy, MsNsUsesHalfHalfW) {
  PolicyHarness h(3, 1);
  // Node 1: busy CPU, free disk. Node 2: free CPU, busy disk.
  h.load[1] = LoadInfo{0.1, 1.0};
  h.load[2] = LoadInfo{1.0, 0.1};
  // A disk-bound request (w=0.1): sampling knows node 2's busy disk is
  // fatal and avoids it; ns (w=0.5) sees nodes 1 and 2 as equal and sends
  // a substantial share to the disk-saturated node.
  auto ms = make_ms();
  auto ns = make_ms({.sample_demand = false});
  int ms_node2 = 0, ns_node2 = 0;
  for (int i = 0; i < 600; ++i) {
    if (ms->route(h.request(true, 0.1), h.view).node == 2) ++ms_node2;
    if (ns->route(h.request(true, 0.1), h.view).node == 2) ++ns_node2;
  }
  EXPECT_EQ(ms_node2, 0);
  EXPECT_GT(ns_node2, 100);
}

TEST(Policy, Ms1TreatsAllNodesAsMasters) {
  PolicyHarness h(6, 2);  // two masters, but M/S-1 ignores the roles
  auto ms1 = make_ms({.all_masters = true});
  std::set<int> static_nodes, dynamic_nodes;
  for (int i = 0; i < 3000; ++i) {
    static_nodes.insert(ms1->route(h.request(false), h.view).node);
    dynamic_nodes.insert(ms1->route(h.request(true), h.view).node);
  }
  EXPECT_EQ(static_nodes.size(), 6u);
  EXPECT_EQ(dynamic_nodes.size(), 6u);
}

TEST(Policy, MsPrimePinsDynamicToKNodes) {
  PolicyHarness h(8, 2);
  auto msp = make_msprime(3);
  std::set<int> static_nodes;
  for (int i = 0; i < 4000; ++i) {
    const Decision stat = msp->route(h.request(false), h.view);
    static_nodes.insert(stat.node);
    const Decision dyn = msp->route(h.request(true), h.view);
    EXPECT_LT(dyn.node, 3);
  }
  EXPECT_EQ(static_nodes.size(), 8u);
}

TEST(Policy, FactoryNames) {
  EXPECT_EQ(make_dispatcher(SchedulerKind::kFlat)->name(), "Flat");
  EXPECT_EQ(make_dispatcher(SchedulerKind::kMs)->name(), "M/S");
  EXPECT_EQ(make_dispatcher(SchedulerKind::kMsNs)->name(), "M/S-ns");
  EXPECT_EQ(make_dispatcher(SchedulerKind::kMsNr)->name(), "M/S-nr");
  EXPECT_EQ(make_dispatcher(SchedulerKind::kMs1)->name(), "M/S-1");
  EXPECT_EQ(make_dispatcher(SchedulerKind::kMsPrime, 2)->name(), "M/S'");
  EXPECT_EQ(to_string(SchedulerKind::kMsNr), "M/S-nr");
}

TEST(Policy, KindNamesMatchDispatcherNames) {
  for (const SchedulerKind kind :
       {SchedulerKind::kFlat, SchedulerKind::kMs, SchedulerKind::kMsNs,
        SchedulerKind::kMsNr, SchedulerKind::kMs1, SchedulerKind::kMsPrime})
    EXPECT_EQ(to_string(kind), make_dispatcher(kind, 2)->name());
  const auto unknown = static_cast<SchedulerKind>(99);
  EXPECT_EQ(to_string(unknown), "?");
  EXPECT_THROW(make_dispatcher(unknown), std::invalid_argument);
}

TEST(Policy, MsPrimeRejectsBadK) {
  EXPECT_THROW(make_msprime(0), std::invalid_argument);
}

TEST(Policy, SpeedAwareRoutesToFastSlave) {
  PolicyHarness h(3, 1);
  std::vector<sim::NodeParams> speeds(3);
  speeds[2].cpu_speed = 8.0;  // slave 2 is much faster
  h.view.node_params = &speeds;
  // Equal measured load everywhere; CPU-bound requests.
  auto aware = make_ms({.rsrc_tolerance = 0.0, .speed_aware = true});
  auto blind = make_ms({.rsrc_tolerance = 0.0});
  int aware_fast = 0, blind_fast = 0;
  for (int i = 0; i < 400; ++i) {
    if (aware->route(h.request(true, 0.95), h.view).node == 2) ++aware_fast;
    if (blind->route(h.request(true, 0.95), h.view).node == 2) ++blind_fast;
  }
  EXPECT_GT(aware_fast, 350);
  EXPECT_LT(blind_fast, 300);  // blind treats slaves 1 and 2 as equal-ish
}

TEST(Policy, BinaryAdmissionUsesThresholdGate) {
  PolicyHarness h(4, 2);
  auto binary = make_ms({.binary_admission = true});
  // Push the smoothed master fraction above the limit: the binary gate is
  // shut, so no dynamic request may land on a master while it stays shut.
  for (int i = 0; i < 2000; ++i)
    h.reservation->record_dynamic_routing(true);
  for (int i = 0; i < 200; ++i) {
    const bool shut = !h.reservation->binary_gate_open();
    const Decision d = binary->route(h.request(true), h.view);
    if (shut) {
      EXPECT_GE(d.node, 2);
    }
  }
}

/// Routes one seeded request script through two copies of a dispatcher:
/// one with every breaker closed (the per-node gate is consulted), one
/// with no breakers. Every node admits either way, so the decisions and
/// the final RNG state must match exactly.
void expect_closed_breakers_match_none(
    const std::function<std::unique_ptr<Dispatcher>()>& make) {
  constexpr int kP = 16;
  PolicyHarness plain(kP, 4), gated(kP, 4);
  overload::BreakerConfig config;
  config.enabled = true;
  overload::BreakerBank bank(kP, config);
  gated.view.breakers = &bank;
  auto a = make();
  auto b = make();
  Rng script(41);
  for (int i = 0; i < 10'000; ++i) {
    if (i % 100 == 0) {
      for (std::size_t n = 0; n < kP; ++n) {
        const LoadInfo info{0.05 + 0.95 * script.uniform(),
                            0.05 + 0.95 * script.uniform()};
        plain.load[n] = info;
        gated.load[n] = info;
      }
    }
    const trace::TraceRecord request =
        plain.request(script.bernoulli(0.4), script.uniform());
    const Decision da = a->route(request, plain.view);
    const Decision db = b->route(request, gated.view);
    ASSERT_EQ(da.node, db.node) << a->name() << " decision " << i;
    ASSERT_EQ(da.receiver, db.receiver) << a->name() << " decision " << i;
    ASSERT_EQ(da.remote, db.remote);
    ASSERT_EQ(da.rsrc_w, db.rsrc_w);
  }
  for (int draw = 0; draw < 4; ++draw)
    EXPECT_EQ(plain.rng.next(), gated.rng.next()) << a->name();
}

TEST(Policy, ClosedBreakersDecideLikeNoBreakers) {
  expect_closed_breakers_match_none([] { return make_flat(); });
  expect_closed_breakers_match_none([] { return make_ms(); });
  expect_closed_breakers_match_none([] { return make_msprime(3); });
}

TEST(Policy, HedgeExclusionHoldsWhileNothingBlocks) {
  // A hedge copy must not land on its primary's node even when no node is
  // blocked: the unfiltered receiver draw and candidate range may only be
  // taken when the excluded node lies outside them.
  PolicyHarness h(6, 2);
  h.view.exclude_node = 1;  // a master
  std::unique_ptr<Dispatcher> dispatchers[] = {make_flat(), make_ms(),
                                               make_msprime(2)};
  for (const auto& dispatcher : dispatchers) {
    for (int i = 0; i < 2000; ++i) {
      const Decision d = dispatcher->route(h.request(i % 2 == 0), h.view);
      ASSERT_NE(d.node, 1) << dispatcher->name();
      ASSERT_NE(d.receiver, 1) << dispatcher->name();
    }
  }
}

// --- all-gated fallbacks ---
//
// M/S keeps two fallback rules for when no master, or no candidate at
// all, may take work: one with the fault layer off, one with it on. The
// tests below pin each rule in its own mode, so swapping them fails.

/// The candidate nodes a logged decision scored, in order.
std::vector<int> candidate_nodes(const obs::DecisionLog& log,
                                 const obs::DecisionRecord& rec) {
  const obs::ScoredCandidate* cands = log.candidates_begin(rec);
  std::vector<int> nodes;
  for (std::uint32_t c = 0; c < rec.cand_count; ++c)
    nodes.push_back(cands[c].node);
  return nodes;
}

TEST(Policy, MsWithEveryMasterGatedDrawsTheReceiverFromAllMasters) {
  // Fault layer off: with every master gated (the slow bit, then open
  // breakers) the front end still accepts at a master.
  constexpr int kP = 6;
  constexpr int kM = 2;
  PolicyHarness slow(kP, kM), tripped(kP, kM);
  BlockMask mask(kP);
  for (int n = 0; n < kM; ++n) mask.set(n, kBlockSlow, true);
  slow.view.blocked = &mask;
  overload::BreakerConfig config;
  config.enabled = true;
  overload::BreakerBank bank(kP, config);
  for (int n = 0; n < kM; ++n)
    for (int i = 0; i < config.failure_threshold; ++i)
      bank.node(n).note_failure(0);
  tripped.view.breakers = &bank;
  for (PolicyHarness* h : {&slow, &tripped}) {
    auto ms = make_ms();
    for (int i = 0; i < 2000; ++i) {
      const bool dynamic = i % 2 == 0;
      const Decision d = ms->route(h->request(dynamic), h->view);
      ASSERT_LT(d.receiver, kM) << "decision " << i;
      if (dynamic) {
        ASSERT_GE(d.node, kM) << "a gated master took dynamic work";
      } else {
        ASSERT_EQ(d.node, d.receiver);
      }
    }
  }
}

TEST(Policy, MsWithEveryNodeGatedRoutesAmongPoweredNodes) {
  // Fault layer off, every node gated: the receiver stays on a master and
  // the candidates are every node that is not powered down.
  constexpr int kP = 6;
  constexpr int kM = 2;
  PolicyHarness h(kP, kM);
  BlockMask mask(kP);
  for (int n = 0; n < kP; ++n) mask.set(n, kBlockSlow, true);
  mask.set(4, kBlockPoweredDown, true);
  h.view.blocked = &mask;
  obs::DecisionLog log;
  h.view.decisions = &log;
  auto ms = make_ms();
  for (int i = 0; i < 500; ++i) ms->route(h.request(true), h.view);
  ASSERT_EQ(log.size(), 500u);
  const std::vector<int> powered = {0, 1, 2, 3, 5};
  for (const obs::DecisionRecord& rec : log.records()) {
    ASSERT_LT(rec.receiver, kM);
    ASSERT_EQ(candidate_nodes(log, rec), powered) << "decision " << rec.seq;
  }
}

TEST(Policy, MsWithEveryNodePoweredDownRoutesAmongEveryNode) {
  // Fault layer off, no powered node left: the last fallback is every
  // node, and the receiver stays on the master.
  PolicyHarness h(4, 1);
  BlockMask mask(4);
  for (int n = 0; n < 4; ++n) mask.set(n, kBlockPoweredDown, true);
  h.view.blocked = &mask;
  obs::DecisionLog log;
  h.view.decisions = &log;
  auto ms = make_ms();
  for (int i = 0; i < 100; ++i) ms->route(h.request(true), h.view);
  for (const obs::DecisionRecord& rec : log.records()) {
    ASSERT_EQ(rec.receiver, 0);
    ASSERT_EQ(candidate_nodes(log, rec), (std::vector<int>{0, 1, 2, 3}));
  }
}

TEST(Policy, MsUnderFailoverWithEveryNodeSuspectedRoutesToTheReceiverPool) {
  // Fault layer on, every node suspected: every available node receives,
  // and with no candidate left (the reservation gate shut) the receiver
  // pool is the candidate set.
  constexpr int kP = 6;
  PolicyHarness h(kP, 2);
  fault::Membership membership(kP, 2);
  h.view.membership = &membership;
  BlockMask mask(kP);
  for (int n = 0; n < kP; ++n) mask.set(n, kBlockDeclared, true);
  h.view.blocked = &mask;
  obs::DecisionLog log;
  h.view.decisions = &log;
  for (int i = 0; i < 2000; ++i)
    h.reservation->record_dynamic_routing(true);
  auto ms = make_ms();
  for (int i = 0; i < 400; ++i) ms->route(h.request(true), h.view);
  std::set<int> receivers;
  int shut = 0;
  for (const obs::DecisionRecord& rec : log.records()) {
    receivers.insert(rec.receiver);
    shut += std::string(rec.reason) == "min-rsrc-reserved";
    ASSERT_EQ(candidate_nodes(log, rec),
              (std::vector<int>{0, 1, 2, 3, 4, 5}))
        << "decision " << rec.seq;
  }
  EXPECT_EQ(receivers, (std::set<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_GT(shut, 0) << "the gate never shut";
}

TEST(Policy, EveryPolicyHoldsArrivalsAtNodeZeroInATotalOutage) {
  // Every node declared dead: nothing is available, and each policy hands
  // the request to node 0 (the cluster holds arrivals until nodes return).
  constexpr int kP = 4;
  PolicyHarness h(kP, 2);
  fault::Membership membership(kP, 2);
  BlockMask mask(kP);
  for (int n = 0; n < kP; ++n) {
    membership.mark_dead(n);
    mask.set(n, kBlockDeclared, true);
  }
  ASSERT_TRUE(membership.available().empty());
  h.view.membership = &membership;
  h.view.blocked = &mask;
  obs::DecisionLog log;
  h.view.decisions = &log;
  std::unique_ptr<Dispatcher> dispatchers[] = {make_flat(), make_ms(),
                                               make_msprime(2)};
  for (const auto& dispatcher : dispatchers) {
    for (const bool dynamic : {false, true}) {
      const Decision d = dispatcher->route(h.request(dynamic), h.view);
      EXPECT_EQ(d.node, 0) << dispatcher->name();
      EXPECT_EQ(d.receiver, 0) << dispatcher->name();
      EXPECT_FALSE(d.remote) << dispatcher->name();
      EXPECT_STREQ(log.records().back().reason, "no-candidates");
    }
  }
}

TEST(Policy, MsUnderFailoverWithEveryMasterSuspectedDrawsAHealthySlave) {
  // Fault layer on (a membership in the view), both masters and one slave
  // suspected: the receiver is a healthy slave, and so is the target.
  constexpr int kP = 6;
  constexpr int kM = 2;
  PolicyHarness h(kP, kM);
  fault::Membership membership(kP, kM);
  h.view.membership = &membership;
  BlockMask mask(kP);
  for (const int n : {0, 1, 3}) mask.set(n, kBlockDeclared, true);
  h.view.blocked = &mask;
  const std::set<int> healthy_slaves = {2, 4, 5};
  auto ms = make_ms();
  for (int i = 0; i < 2000; ++i) {
    const Decision d = ms->route(h.request(i % 2 == 0), h.view);
    ASSERT_TRUE(healthy_slaves.count(d.receiver) == 1)
        << "receiver " << d.receiver << " at decision " << i;
    ASSERT_TRUE(healthy_slaves.count(d.node) == 1)
        << "target " << d.node << " at decision " << i;
  }
}

TEST(Policy, MsPrimeWithEveryDedicatedNodeGatedUsesNodesThatMayTakeWork) {
  // M/S' with both dedicated nodes gated: dynamic work goes to a node
  // that may take work, never to a gated dedicated node, with the fault
  // layer on (failover membership) or off (the static split).
  constexpr int kP = 6;
  const fault::Membership failover(kP, 2);
  for (const bool fault_layer : {true, false}) {
    PolicyHarness h(kP, 2);
    if (fault_layer) h.view.membership = &failover;
    BlockMask mask(kP);
    mask.set(0, kBlockSlow, true);
    mask.set(1, kBlockSlow, true);
    h.view.blocked = &mask;
    auto msp = make_msprime(2);
    std::set<int> targets;
    for (int i = 0; i < 2000; ++i) {
      const Decision d = msp->route(h.request(true), h.view);
      ASSERT_GE(d.node, 2) << "decision " << i;
      ASSERT_GE(d.receiver, 2) << "decision " << i;
      targets.insert(d.node);
    }
    EXPECT_EQ(targets, (std::set<int>{2, 3, 4, 5}));
  }
}

TEST(Policy, DecisionCarriesReceiverAndW) {
  PolicyHarness h(6, 2);
  auto ms = make_ms();
  for (int i = 0; i < 200; ++i) {
    const Decision stat = ms->route(h.request(false), h.view);
    EXPECT_EQ(stat.receiver, stat.node);
    EXPECT_LT(stat.rsrc_w, 0.0);
    const Decision dyn = ms->route(h.request(true, 0.7), h.view);
    EXPECT_GE(dyn.receiver, 0);
    EXPECT_LT(dyn.receiver, 2) << "receiver must be a master";
    EXPECT_DOUBLE_EQ(dyn.rsrc_w, 0.7);
    EXPECT_EQ(dyn.remote, dyn.node != dyn.receiver);
  }
}

}  // namespace
}  // namespace wsched::core
