#include "core/cluster.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/cache.hpp"
#include "core/experiment.hpp"
#include "core/metric_table.hpp"
#include "fault/membership.hpp"
#include "net/net_health.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "net/stale_view.hpp"
#include "obs/log.hpp"
#include "overload/backoff.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace wsched::core {

namespace {

// schedule_call trampoline over a long-lived std::function (the periodic
// tick closures and the arrival cursor below): re-scheduling through a
// pointer costs nothing, where re-scheduling the std::function by value
// used to copy (and usually heap-allocate) it once per firing.
void invoke_closure(void* ctx) {
  (*static_cast<std::function<void()>*>(ctx))();
}

}  // namespace

ClusterSim::ClusterSim(ClusterConfig config,
                       std::unique_ptr<Dispatcher> dispatcher)
    : config_(std::move(config)), dispatcher_(std::move(dispatcher)) {
  if (config_.p < 1) throw std::invalid_argument("cluster: p must be >= 1");
  if (config_.m < 1 || config_.m > config_.p)
    throw std::invalid_argument("cluster: need 1 <= m <= p");
  if (!config_.node_params.empty() &&
      config_.node_params.size() != static_cast<std::size_t>(config_.p))
    throw std::invalid_argument("cluster: node_params size mismatch");
  if (dispatcher_ == nullptr)
    throw std::invalid_argument("cluster: dispatcher required");
  if (config_.net.enabled &&
      (!config_.net.partitions.empty() || config_.net.partition_mttf_s > 0.0) &&
      !config_.fault.enabled)
    throw std::invalid_argument(
        "cluster: network partitions require the fault layer "
        "(fault.enabled) so membership and health can react");
  if (config_.ctrl.enabled) {
    if (config_.ctrl.interval_s <= 0.0)
      throw std::invalid_argument("cluster: ctrl interval must be > 0");
    if (config_.ctrl.autoscale && config_.fault.enabled)
      throw std::invalid_argument(
          "cluster: autoscaling and the fault layer are mutually "
          "exclusive (the health monitor would declare drained nodes dead "
          "and the injector would recover them behind the scaler's back)");
    if (config_.ctrl.autoscale && config_.ctrl.min_powered < 1)
      throw std::invalid_argument("cluster: ctrl min_powered must be >= 1");
  }
  if (config_.hedge.enabled &&
      (config_.hedge.delay_s < 0.0 || config_.hedge.min_delay_s < 0.0 ||
       config_.hedge.delay_factor <= 0.0))
    throw std::invalid_argument("cluster: invalid hedge config");
}

RunResult ClusterSim::run(const trace::Trace& trace) {
  trace::TraceCursor cursor(trace);
  return run(cursor);
}

RunResult ClusterSim::run(trace::RecordSource& source) {
  // The source is pulled one record ahead of the clock: `pending` is the
  // next arrival, fetched before the current one is delivered.
  trace::TraceRecord pending;
  if (!source.next(pending)) return RunResult{};
  // Capacity hint for the tables indexed by job id (never a bound).
  const std::size_t expected_requests = source.size_hint() + 1;
  sim::Engine engine;

  // --- observability (all collectors optional; see obs/observer.hpp) ---
  obs::TraceSink* tracer = config_.obs.trace;
  obs::CounterRegistry* counters = config_.obs.counters;
  obs::SpanRecorder* spans = config_.obs.spans;
  if (spans != nullptr) spans->reserve(expected_requests);
  // Flow events ride the trace but only exist when spans are on, so a
  // span-off trace keeps its exact bytes.
  obs::TraceSink* flow = spans != nullptr ? tracer : nullptr;
  const int cluster_pid = config_.p;  ///< pseudo-pid for cluster-level lanes
  const bool net_on = config_.net.enabled;
  const bool ctrl_on = config_.ctrl.any();
  const bool ctrl_scaling = ctrl_on && config_.ctrl.autoscale;
  const bool slow_on = config_.slow_health.enabled;
  const bool hedges_on = config_.hedge.enabled;
  if (config_.max_events > 0 || config_.wall_budget_s > 0.0) {
    engine.set_guard(config_.max_events, config_.wall_budget_s);
    if (tracer != nullptr)
      engine.set_guard_diagnostics(
          [tracer] { return tracer->recent_summary(); });
  }
  if (tracer != nullptr) {
    for (int i = 0; i < config_.p; ++i) {
      tracer->name_process(i, (i < config_.m ? "master " : "slave ") +
                                  std::to_string(i));
      tracer->name_thread(i, obs::kLaneRequest, "requests");
      tracer->name_thread(i, obs::kLaneCpu, "cpu");
      tracer->name_thread(i, obs::kLaneDisk, "disk");
      tracer->name_thread(i, obs::kLaneFault, "fault");
    }
    tracer->name_process(cluster_pid, "cluster");
    tracer->name_thread(cluster_pid, obs::kLaneDispatch, "dispatch");
    tracer->name_thread(cluster_pid, obs::kLaneControl, "control");
    tracer->name_thread(cluster_pid, obs::kLaneOverload, "overload");
    // Gated on net_on: naming the lane in a net-off run would change the
    // trace bytes and break the ideal() byte-identity contract.
    if (net_on) tracer->name_thread(cluster_pid, obs::kLaneNet, "net");
    // Same contract for the control plane's lane.
    if (ctrl_on) tracer->name_thread(cluster_pid, obs::kLaneCtrl, "ctrl");
  }
  // Every outcome is tallied once, straight into the result; the counter
  // registry is filled from it after the run (core/metric_table.hpp).
  RunResult result;
  result.net_enabled = net_on;
  result.ctrl_enabled = ctrl_on;
  result.slow_health_enabled = slow_on;
  result.hedging_enabled = hedges_on;
  result.powered_min = config_.p;

  sim::NodeObsHooks node_hooks;
  node_hooks.trace = tracer;
  node_hooks.spans = spans;

  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(static_cast<std::size_t>(config_.p));
  std::vector<sim::Node*> node_ptrs;
  for (int i = 0; i < config_.p; ++i) {
    const sim::NodeParams params =
        config_.node_params.empty()
            ? sim::NodeParams{}
            : config_.node_params[static_cast<std::size_t>(i)];
    nodes.push_back(
        std::make_unique<sim::Node>(engine, config_.os, params, i));
    nodes.back()->set_obs(node_hooks);
    node_ptrs.push_back(nodes.back().get());
  }

  LoadMonitor monitor(engine, node_ptrs, config_.load_sample_period);
  // One dispatch-knowledge instance per potential receiver: a master only
  // sees the shared periodic sample plus its own recent redirections.
  std::vector<DispatchFeedback> feedbacks(
      static_cast<std::size_t>(config_.p),
      DispatchFeedback(static_cast<std::size_t>(config_.p),
                       config_.load_sample_period,
                       config_.initial_dynamic_demand_s));
  // With the net model on the monitor is no longer an oracle feed: the
  // feedbacks refresh only from load reports that actually crossed the
  // wire (see the report tick below).
  if (!net_on)
    monitor.set_on_sample([&] {
      for (auto& feedback : feedbacks) feedback.on_sample(monitor.all());
    });
  ReservationConfig res_cfg = config_.reservation;
  res_cfg.p = config_.p;
  res_cfg.m = config_.m;
  ReservationController reservation(res_cfg);

  // --- self-tuning control plane (absent when disabled: no estimator, no
  // power state, no extra events — byte-identical to a build without it) ---
  std::optional<ctrl::ParamEstimator> estimator;
  std::optional<ctrl::ControlLoop> ctrl_loop;
  std::vector<char> powered_state;
  int powered_count = config_.p;
  // result.energy_node_s sums closed powered windows; the open one
  // starts at energy_mark.
  Time energy_mark = 0;
  if (ctrl_on) {
    ctrl::EstimatorConfig est_cfg;
    est_cfg.alpha = config_.ctrl.estimate_alpha;
    est_cfg.initial_w = config_.ctrl.initial_w;
    est_cfg.initial_r = config_.reservation.initial_r;
    estimator.emplace(est_cfg);
    ctrl_loop.emplace(config_.ctrl, config_.p);
    if (ctrl_scaling) powered_state.assign(
        static_cast<std::size_t>(config_.p), 1);
  }

  // --- network fault model (absent when disabled: NetworkParams::ideal()
  // constructs nothing and the paper's perfect-wire path runs unchanged) ---
  std::optional<net::Network> network;
  std::optional<net::Rpc> rpc;
  std::optional<net::StaleClusterView> stale_view;
  std::optional<net::NetHealth> net_health;
  if (net_on) {
    network.emplace(engine, config_.net, config_.p, config_.seed);
    net::NetworkHooks net_hooks;
    net_hooks.trace = tracer;
    net_hooks.cluster_pid = cluster_pid;
    network->set_hooks(net_hooks);
    net::Rpc::Options rpc_options;
    rpc_options.timeout = from_seconds(config_.net.rpc_timeout_s);
    rpc_options.max_attempts = config_.net.rpc_max_attempts;
    rpc_options.backoff = config_.net.rpc_backoff;
    rpc.emplace(engine, *network, rpc_options, config_.seed);
    net::Rpc::Hooks rpc_hooks;
    rpc_hooks.trace = tracer;
    rpc_hooks.cluster_pid = cluster_pid;
    rpc_hooks.spans = spans;
    rpc->set_hooks(rpc_hooks);
    stale_view.emplace(config_.p);
  }

  // --- latency-based gray-failure watchdog (absent when disabled: no
  // EWMAs, no watchdog rounds, byte-identical to a build without it) ---
  std::optional<fault::SlowHealthMonitor> slow_health;
  if (slow_on) {
    slow_health.emplace(config_.p, config_.slow_health);
    slow_health->set_on_transition([&, tracer](int node,
                                               fault::NodeHealth from,
                                               fault::NodeHealth to) {
      if (tracer != nullptr)
        tracer->instant(obs::Category::kFault, "slow-health", node,
                        obs::kLaneFault, engine.now(),
                        {{"from", fault::to_string(from)},
                         {"to", fault::to_string(to)},
                         {"ewma", slow_health->ewma(node)}});
      obs::logf(obs::LogLevel::kInfo, "slow-health",
                "t=%.3fs node %d %s -> %s (stretch ewma %.2f)",
                to_seconds(engine.now()), node, fault::to_string(from),
                fault::to_string(to), slow_health->ewma(node));
    });
  }

  // --- fault-injection & failover layer (absent when disabled: the
  // default run takes the exact fault-free code path, draw for draw) ---
  const bool faults_on = config_.fault.enabled;
  std::optional<fault::Membership> membership;
  std::optional<fault::HealthMonitor> health;
  std::optional<fault::FaultInjector> injector;
  /// Quorum-deferred promotions: dead masters whose replacement could not
  /// be elected yet (no majority corroboration, or the front end itself
  /// lost quorum). Retried every detection round.
  std::vector<int> pending_promotions;
  if (faults_on) {
    membership.emplace(config_.p, config_.m);
    const Time heartbeat = config_.fault.heartbeat_period > 0
                               ? config_.fault.heartbeat_period
                               : config_.load_sample_period;
    injector.emplace(engine, node_ptrs, config_.fault, config_.m,
                     config_.seed);
    injector->set_trace(tracer);
    // Fail-slow episodes with a network face ride the net model's per-node
    // degradation (extra loss, latency factor); inert without src/net/.
    if (net_on)
      injector->set_on_net_degrade(
          [&](int node, double extra_loss, double latency_factor) {
            network->set_node_degradation(node, extra_loss, latency_factor);
          });
    const auto note_promotion = [&, tracer](int promoted, int replaced) {
      if (tracer != nullptr)
        tracer->instant(obs::Category::kFault, "promote", promoted,
                        obs::kLaneFault, engine.now(),
                        {{"replaces", replaced}});
      obs::logf(obs::LogLevel::kInfo, "membership",
                "t=%.3fs slave %d promoted to master (replacing %d)",
                to_seconds(engine.now()), promoted, replaced);
      // The promoted node now claims the role in the distributed view.
      if (net_on) net_health->set_claim(promoted, true);
    };
    const auto transition_handler = [&, tracer, note_promotion](
                                        int node, fault::NodeHealth from,
                                        fault::NodeHealth to) {
      if (tracer != nullptr)
        tracer->instant(obs::Category::kFault, "health", node,
                        obs::kLaneFault, engine.now(),
                        {{"from", fault::to_string(from)},
                         {"to", fault::to_string(to)}});
      obs::logf(obs::LogLevel::kDebug, "health", "t=%.3fs node %d %s -> %s",
                to_seconds(engine.now()), node, fault::to_string(from),
                fault::to_string(to));
      // Roles follow *declared* state: promotion and the Theorem-1
      // re-sizing of theta'_2 happen at detection time, not crash time.
      if (to == fault::NodeHealth::kDead) {
        // A dead node's latency history describes a machine that no
        // longer exists; the watchdog forgets it.
        if (slow_on) slow_health->on_node_down(node);
        const bool was_master = membership->is_master(node);
        const int promoted = membership->mark_dead(node);
        if (promoted >= 0) {
          note_promotion(promoted, node);
        } else if (net_on && was_master) {
          // Quorum gate (or reachability filter) blocked the election;
          // park it for the per-round retry.
          pending_promotions.push_back(node);
        }
      } else if (to == fault::NodeHealth::kHealthy) {
        membership->mark_alive(node);
        if (net_on) {
          pending_promotions.erase(std::remove(pending_promotions.begin(),
                                               pending_promotions.end(), node),
                                   pending_promotions.end());
          net_health->set_claim(node, membership->is_master(node));
        }
      } else {
        return;  // suspected: candidate pools shrink, roles unchanged
      }
      reservation.set_membership(membership->effective_p(),
                                 membership->effective_m());
    };
    if (net_on) {
      // Distributed detection: the (p + 1) x p observer matrix replaces
      // the single omniscient HealthMonitor (see net/net_health.hpp).
      net::NetHealth::Config nh_cfg;
      nh_cfg.period = heartbeat;
      nh_cfg.suspect_misses = config_.fault.suspect_misses;
      nh_cfg.dead_misses = config_.fault.dead_misses;
      nh_cfg.loss = config_.net.loss;
      nh_cfg.quorum = config_.net.quorum ? config_.p / 2 + 1 : 0;
      nh_cfg.masters = config_.m;
      net_health.emplace(engine, node_ptrs, *network, nh_cfg, config_.seed);
      net::NetHealth::Hooks nh_hooks;
      nh_hooks.trace = tracer;
      nh_hooks.cluster_pid = cluster_pid;
      net_health->set_hooks(nh_hooks);
      net_health->set_on_transition(transition_handler);
      // Split-brain safety: a dead master's role moves only when a
      // majority of live observers corroborate the death AND the serving
      // side holds quorum; the replacement must itself be reachable from
      // the front end (never elect a minority-side slave).
      membership->set_promotion_gate([&](int dead) {
        if (!config_.net.quorum) return true;
        const int q = config_.p / 2 + 1;
        return net_health->dead_votes(dead) >= q &&
               net_health->healthy_count() >= q;
      });
      membership->set_promotion_filter(
          [&](int candidate) { return network->front_end_reaches(candidate); });
      net_health->set_on_round([&, note_promotion] {
        for (std::size_t i = 0; i < pending_promotions.size();) {
          const int dead = pending_promotions[i];
          const int promoted = membership->retry_promotion(dead);
          if (promoted >= 0) {
            note_promotion(promoted, dead);
            reservation.set_membership(membership->effective_p(),
                                       membership->effective_m());
          }
          // Drop the entry once resolved: the role moved, or the node
          // came back (retry_promotion returns -1 for both and the
          // kHealthy transition above also erases revived nodes).
          if (promoted >= 0 || !membership->is_master(dead) ||
              node_ptrs[static_cast<std::size_t>(dead)]->alive()) {
            pending_promotions.erase(pending_promotions.begin() +
                                     static_cast<std::ptrdiff_t>(i));
          } else {
            ++i;
          }
        }
      });
    } else {
      health.emplace(engine, node_ptrs, heartbeat,
                     config_.fault.suspect_misses, config_.fault.dead_misses);
      health->set_on_transition(transition_handler);
    }
  }

  // One CGI result cache per potential receiver (the Swala extension).
  const bool cache_on = config_.cgi_cache_entries > 0;
  std::vector<CgiCache> caches(
      static_cast<std::size_t>(config_.p),
      CgiCache(config_.cgi_cache_entries, config_.cgi_cache_ttl));

  Rng dispatch_rng(config_.seed, 0xD15);
  ClusterView view;
  view.load = &monitor.all();
  if (config_.use_dispatch_feedback) view.feedbacks = &feedbacks;
  if (!config_.node_params.empty()) view.node_params = &config_.node_params;
  view.p = config_.p;
  view.m = config_.m;
  view.reservation = &reservation;
  view.rng = &dispatch_rng;
  if (faults_on) {
    view.membership = &*membership;
    // The front end routes on the distributed detector's own (lossy) row
    // when the net model is on — partitions cause false suspicion there.
    view.health = net_on ? &net_health->view() : &health->all();
  }
  if (net_on) {
    view.network = &*network;
    view.stale = &*stale_view;
    view.stale_penalty_per_s = config_.net.stale_penalty_per_s;
    view.stale_max_age_s = config_.net.stale_max_age_s;
    view.stale_fallbacks = &result.net_stale_fallbacks;
  }
  if (ctrl_on) {
    view.ctrl_active = true;
    if (config_.ctrl.use_estimated_w) view.ctrl_w = estimator->w_ref();
    if (ctrl_scaling) view.powered = &powered_state;
  }
  if (slow_on) {
    view.slow_health = &slow_health->all();
    view.slow_scale = &slow_health->scale();
    view.slow_exclude = config_.slow_health.exclude;
  }
  view.decisions = config_.obs.decisions;
  // The slow_penalty / hedged columns are opt-in so gray-off decision
  // CSVs keep their exact (golden-hashed) bytes.
  if (view.decisions != nullptr && (slow_on || hedges_on))
    view.decisions->enable_gray_columns();
  view.reservation_rejections = &result.reservation_rejections;

  MetricsCollector metrics(config_.warmup, config_.os.fork_overhead);
  if (config_.metrics_tail_start > 0)
    metrics.set_tail_start(config_.metrics_tail_start);
  if (config_.overload.deadline.any())
    metrics.set_deadlines(from_seconds(config_.overload.deadline.static_s),
                          from_seconds(config_.overload.deadline.dynamic_s));

  // Unsettled requests plus the pending record: zero exactly when the
  // source is exhausted and every delivered request has settled.
  std::uint64_t remaining = 1;

  // --- hedged dispatch (absent when disabled: no per-job state, no
  // timers, no dedup claims — byte-identical to a build without it) ---
  /// Per-request hedge bookkeeping, indexed by the dense job id. The
  /// primary/hedge node fields track where each leg currently sits so the
  /// winner can cancel the loser and the fire timer can exclude the
  /// primary's node from the copy's candidate pool.
  struct HedgeState {
    bool armed = false;     ///< hedge timer scheduled for this request
    bool launched = false;  ///< a copy was actually dispatched
    int primary_node = -1;  ///< node the primary occupies (-1 = in flight)
    int hedge_node = -1;    ///< node the copy occupies (-1 = none)
    std::uint32_t origin = 0;  ///< slot in hedge_origins (until settled)
  };
  std::vector<HedgeState> hedge_state;
  /// The request as it arrived (before any cache-hit demotion), which is
  /// what a hedge copy re-routes. Held only while the request is
  /// unsettled: slots are free-listed at settlement.
  std::vector<trace::TraceRecord> hedge_origins;
  std::vector<std::uint32_t> hedge_origin_free;
  /// First settlement wins: claim(id) succeeds exactly once per request,
  /// so a racing loser completion (finished before its cancellation
  /// landed) is dropped here and never double-counted.
  net::DedupFilter hedge_settled;
  // Trailing per-class *stretch* p95 (sojourn normalized by the request's
  // demand) driving the adaptive hedge delay. Normalizing is what keeps
  // hedging from duplicating elephants: with heavy-tailed demands the
  // largest jobs dominate any raw-latency tail even on a healthy cluster,
  // and re-running them doubles real work. A stretch tail instead fires
  // only when a request has waited far longer than *its own* size
  // predicts — the signature of a limping or stalled server.
  TrailingQuantile hedge_stretch_dyn(0.95);
  TrailingQuantile hedge_stretch_stat(0.95);
  if (hedges_on) {
    hedge_state.reserve(expected_requests);
    hedge_state.emplace_back();  // job ids start at 1
    hedge_stretch_dyn.set_min_samples(16);
    hedge_stretch_stat.set_min_samples(16);
  }
  /// Records where a job landed (copies and primaries track separately).
  const auto hedge_note_node = [&](const sim::Job& job, int node) {
    if (!hedges_on) return;
    HedgeState& hs = hedge_state[static_cast<std::size_t>(job.id)];
    if (job.hedge)
      hs.hedge_node = node;
    else
      hs.primary_node = node;
  };
  /// Fires one armed request's hedge copy; assigned with the other
  /// dispatch lambdas below (it needs the routing view).
  std::function<void(std::uint64_t)> hedge_fire;
  /// Settles a request that left the system without completing (timeout,
  /// shed for good, abandonment) and cancels its outstanding copy, so the
  /// ledger `submitted == completed + timeouts + shed + abandoned` closes
  /// exactly even when a copy is still in flight at terminal time.
  const auto hedge_on_terminal = [&](std::uint64_t id) {
    if (!hedges_on) return;
    HedgeState& hs = hedge_state[static_cast<std::size_t>(id)];
    if (!hs.armed || !hedge_settled.claim(id)) return;
    if (hs.launched && hs.hedge_node >= 0 &&
        node_ptrs[static_cast<std::size_t>(hs.hedge_node)]->cancel(id))
      ++result.hedge_cancellations;
  };
  /// A request leaves the system for good (completed, timed out, shed or
  /// abandoned): its hedge origin is released, and the run stops once
  /// nothing is pending or unsettled.
  const auto settle = [&](std::uint64_t id) {
    if (hedges_on)
      hedge_origin_free.push_back(
          hedge_state[static_cast<std::size_t>(id)].origin);
    if (--remaining == 0) engine.stop();
  };

  // --- overload-control layer (absent when every knob sits at its
  // disabled default: the run is bit-identical to a build without it) ---
  const bool overload_on = config_.overload.any();
  std::optional<overload::OverloadController> overload;
  if (overload_on) {
    overload.emplace(engine, node_ptrs, config_.overload, config_.seed);
    overload::OverloadHooks hooks;
    hooks.trace = tracer;
    hooks.cluster_pid = cluster_pid;
    overload->set_hooks(hooks);
    // Degraded static-only mode clamps the reservation: masters stop
    // accepting dynamic work entirely until the detector restores.
    overload->set_on_degraded(
        [&](bool degraded) { reservation.set_degraded(degraded); });
    // Abandonment is terminal: the request leaves the system here.
    overload->set_on_abandon([&](std::uint64_t id) {
      hedge_on_terminal(id);
      if (spans != nullptr)
        spans->terminal(id, obs::SpanOutcome::kAbandoned, engine.now());
      if (flow != nullptr)
        flow->flow(obs::Category::kRequest, 'f', "req", cluster_pid,
                   obs::kLaneOverload, engine.now(), id);
      settle(id);
    });
    view.breakers = overload->breakers();
  }
  // Failover re-dispatch delays follow the shared backoff curve; the
  // dedicated stream keeps every other consumer's draws untouched, and a
  // jitter-free (or fault-free) run draws nothing from it.
  Rng fault_backoff_rng(config_.seed, 0xFA11B0FF);

  // Healthy count as the front end *believes* it: the distributed
  // detector's row when the net model is on (false suspicion included),
  // the omniscient monitor otherwise. Only meaningful when faults_on.
  const auto declared_healthy = [&]() -> int {
    return net_on ? net_health->healthy_count() : health->healthy_count();
  };

  for (int i = 0; i < config_.p; ++i) {
    nodes[static_cast<std::size_t>(i)]->set_completion_callback(
        [&, i](const sim::Job& job, Time completion) {
          if (hedges_on) {
            HedgeState& hs = hedge_state[static_cast<std::size_t>(job.id)];
            if (hs.armed) {
              // First completion wins. A loser that finished before its
              // cancellation landed (or after a terminal settle) fails the
              // claim and is dropped without touching any counter.
              if (!hedge_settled.claim(job.id)) return;
              const int loser = job.hedge
                                    ? hs.primary_node
                                    : (hs.launched ? hs.hedge_node : -1);
              if (job.hedge) {
                ++result.hedge_wins;
                if (spans != nullptr)
                  spans->note(job.id, "hedge-win", completion, i);
              }
              if (loser >= 0 && loser != i &&
                  node_ptrs[static_cast<std::size_t>(loser)]->cancel(job.id))
                ++result.hedge_cancellations;
            }
          }
          // on_complete closes deadline tracking and feeds the breaker /
          // admission signals; false flags a completion racing an
          // already-counted abandonment, which must not be counted twice.
          if (overload_on && !overload->on_complete(job, i, completion))
            return;
          ++result.completed;
          if (spans != nullptr) {
            // The final job is authoritative for class/demand (a cache
            // hit may have demoted a dynamic request mid-flight).
            spans->on_class(job.id, job.request.is_dynamic(),
                            job.request.service_demand);
            spans->terminal(job.id, obs::SpanOutcome::kCompleted,
                            completion);
          }
          if (flow != nullptr)
            flow->flow(obs::Category::kRequest, 'f', "req", i,
                       obs::kLaneRequest, completion, job.id);
          metrics.record(job, completion);
          // Stretch sample for the gray-failure watchdog: the node that
          // served the request is charged its normalized latency.
          if (slow_on)
            slow_health->on_completion(i, completion - job.cluster_arrival,
                                       job.request.service_demand);
          // Every counted completion feeds the trailing stretch quantile
          // the adaptive hedge-delay rule reads.
          if (hedges_on)
            (job.request.is_dynamic() ? hedge_stretch_dyn
                                      : hedge_stretch_stat)
                .add(static_cast<double>(completion - job.cluster_arrival) /
                     static_cast<double>(
                         std::max<Time>(job.request.service_demand, 1)));
          reservation.record_completion(job.request.is_dynamic(),
                                        completion - job.cluster_arrival);
          // Completed-job accounting for the online estimator: the OS
          // model consumed exactly the record's demand and CPU share, so
          // they are the finished request's ground truth (what a real
          // server reads from rusage at response time).
          if (ctrl_on)
            estimator->on_completion(job.request.is_dynamic(),
                                     to_seconds(job.request.service_demand),
                                     job.request.cpu_fraction);
          if (job.request.is_dynamic()) {
            if (net_on) {
              // No oracle broadcast with the net model on: only the master
              // that served the response learns its demand — the others
              // refresh from their own completions.
              feedbacks[static_cast<std::size_t>(job.receiver)]
                  .note_dynamic_demand(job.request.service_demand);
            } else {
              for (auto& feedback : feedbacks)
                feedback.note_dynamic_demand(job.request.service_demand);
            }
            if (cache_on)
              caches[static_cast<std::size_t>(job.receiver)].insert(
                  job.request.url_id, completion);
          }
          settle(job.id);
        });
  }

  // Routes one admitted job and hands it to the chosen node. Defined
  // below (it needs the failover/net lambdas); declared here because the
  // net delivery path and the control plane's drain migration call back
  // into it.
  std::function<void(sim::Job)> route_and_submit;

  // Failover: a job stranded by a crash (in flight on the node, or routed
  // to it before the failure was detected) is re-dispatched with the
  // shared backoff curve, each hop charged the remote-dispatch latency;
  // past the retry cap it is counted as timed out — never silently lost.
  // Only invoked when the fault layer is active.
  std::function<void(sim::Job)> redispatch;
  // Net model: dispatch one job to `target_idx` over the at-least-once
  // RPC wire (job.receiver must already be set). Defined below the
  // failover lambda; the two reference each other.
  std::function<void(sim::Job, int)> net_dispatch;
  if (faults_on) {
    redispatch = [&](sim::Job job) {
      // A settled request (its hedge copy won meanwhile) must not re-enter
      // the system; copies themselves never fail over.
      if (hedges_on && (job.hedge || hedge_settled.seen(job.id))) return;
      job.disrupted = true;
      ++job.attempts;
      if (static_cast<int>(job.attempts) > config_.fault.max_redispatch) {
        hedge_on_terminal(job.id);
        if (overload_on) overload->forget(job.id);
        ++result.timeouts;
        if (tracer != nullptr)
          tracer->instant(
              obs::Category::kDispatch, "timeout", cluster_pid,
              obs::kLaneDispatch, engine.now(),
              {{"job", job.id},
               {"attempts", static_cast<std::uint64_t>(job.attempts)}});
        obs::logf(obs::LogLevel::kWarn, "failover",
                  "t=%.3fs job %llu timed out after %u attempts",
                  to_seconds(engine.now()),
                  static_cast<unsigned long long>(job.id), job.attempts);
        if (spans != nullptr)
          spans->terminal(job.id, obs::SpanOutcome::kTimeout, engine.now());
        if (flow != nullptr)
          flow->flow(obs::Category::kRequest, 'f', "req", cluster_pid,
                     obs::kLaneDispatch, engine.now(), job.id);
        settle(job.id);
        return;
      }
      ++result.redispatches;
      if (tracer != nullptr)
        tracer->instant(
            obs::Category::kDispatch, "redispatch", cluster_pid,
            obs::kLaneDispatch, engine.now(),
            {{"job", job.id},
             {"attempts", static_cast<std::uint64_t>(job.attempts)}});
      if (overload_on) overload->note_waiting(job.id);
      if (spans != nullptr) {
        // Failover wait charges to the backoff phase. Without the net
        // model the flat remote hop latency is folded into this same
        // delay, so it lands in backoff too (DESIGN.md section 15).
        spans->begin_backoff(job.id, engine.now(), /*admission=*/false);
        spans->note(job.id, "redispatch", engine.now(), job.attempts);
      }
      // With the net model on, the hop cost is the RPC wire itself
      // (sampled latency, retransmits) — not a flat add-on here.
      Time delay = overload::backoff_delay(config_.fault.redispatch_backoff,
                                           job.attempts, &fault_backoff_rng);
      if (!net_on) delay += config_.os.remote_cgi_latency;
      engine.schedule_after(delay, [&, job]() mutable {
        // The client may have abandoned the job during the backoff wait;
        // it was already counted, just drop it here. Same for a request
        // whose hedge copy settled it during the wait.
        if (overload_on && overload->consume_abandoned(job.id)) return;
        if (hedges_on && hedge_settled.seen(job.id)) return;
        if (declared_healthy() == 0) {
          // Total outage at retry time: go around again (and eventually
          // time out at the cap).
          redispatch(std::move(job));
          return;
        }
        view.now = engine.now();
        Decision decision = dispatcher_->route(job.request, view);
        if (decision.node < 0 || decision.node >= config_.p)
          throw std::out_of_range("dispatcher routed outside the cluster");
        job.receiver = decision.receiver;
        job.remote = true;
        if (decision.rsrc_w >= 0.0 && job.request.is_dynamic())
          feedbacks[static_cast<std::size_t>(decision.receiver)].on_dispatch(
              static_cast<std::size_t>(decision.node), decision.rsrc_w);
        if (net_on) {
          // Every failover hop crosses the wire: loss / partition drops
          // surface as RPC retries and, at the cap, another failover.
          if (overload_on) overload->note_dispatch(decision.node);
          net_dispatch(std::move(job), decision.node);
          return;
        }
        sim::Node* target =
            node_ptrs[static_cast<std::size_t>(decision.node)];
        if (!target->alive()) {
          // Crashed again (or still undetected): burn another retry.
          if (overload_on) overload->note_dispatch_failure(decision.node);
          redispatch(std::move(job));
          return;
        }
        if (overload_on) {
          overload->note_dispatch(decision.node);
          overload->note_on_node(job.id, decision.node);
        }
        hedge_note_node(job, decision.node);
        target->submit(std::move(job));
      });
    };
    injector->set_on_crash([&](int node, std::vector<sim::Job> dropped) {
      for (sim::Job& job : dropped) {
        if (hedges_on) {
          HedgeState& hs = hedge_state[static_cast<std::size_t>(job.id)];
          if (job.hedge) {
            // A copy dies with its node; the primary still carries the
            // request, so nothing re-dispatches and nothing is lost.
            hs.hedge_node = -1;
            continue;
          }
          hs.primary_node = -1;
        }
        // Each stranded request is one failed dispatch for the breaker.
        if (overload_on) overload->note_dispatch_failure(node);
        redispatch(std::move(job));
      }
    });
  }
  if (net_on) {
    net_dispatch = [&](sim::Job job, int target_idx) {
      if (spans != nullptr) spans->begin_net(job.id, engine.now());
      rpc->call(
          job.receiver, target_idx,
          /*on_deliver=*/
          [&, job, target_idx]() mutable {
            if (overload_on && overload->consume_abandoned(job.id)) return;
            if (hedges_on && hedge_settled.seen(job.id)) return;
            sim::Node* target =
                node_ptrs[static_cast<std::size_t>(target_idx)];
            if (target->alive()) {
              if (overload_on) overload->note_on_node(job.id, target_idx);
              hedge_note_node(job, target_idx);
              target->submit(std::move(job));
            } else if (faults_on) {
              // Delivered to a node that died mid-flight: failover.
              if (overload_on) overload->note_dispatch_failure(target_idx);
              redispatch(std::move(job));
            } else if (ctrl_scaling) {
              // Delivered to a node the autoscaler powered down mid-
              // flight: re-route like a drained job.
              ++result.ctrl_migrations;
              route_and_submit(std::move(job));
            }
            // Without the fault layer or autoscaler nodes never go away,
            // so the branches above are the only ways a delivered job can
            // miss its target.
          },
          /*on_fail=*/
          [&, job, target_idx]() mutable {
            if (overload_on && overload->consume_abandoned(job.id)) return;
            if (hedges_on && hedge_settled.seen(job.id)) return;
            if (overload_on) overload->note_dispatch_failure(target_idx);
            if (faults_on) {
              redispatch(std::move(job));
              return;
            }
            // No fault layer to retry through: the dispatch is lost on
            // the wire for good and counted as a timeout — never
            // silently dropped.
            hedge_on_terminal(job.id);
            if (overload_on) overload->forget(job.id);
            ++result.timeouts;
            if (tracer != nullptr)
              tracer->instant(
                  obs::Category::kDispatch, "timeout", cluster_pid,
                  obs::kLaneDispatch, engine.now(),
                  {{"job", job.id},
                   {"attempts", static_cast<std::uint64_t>(job.attempts)}});
            obs::logf(obs::LogLevel::kWarn, "net",
                      "t=%.3fs job %llu lost on the wire after %d attempts",
                      to_seconds(engine.now()),
                      static_cast<unsigned long long>(job.id),
                      config_.net.rpc_max_attempts);
            if (spans != nullptr)
              spans->terminal(job.id, obs::SpanOutcome::kTimeout,
                              engine.now());
            if (flow != nullptr)
              flow->flow(obs::Category::kRequest, 'f', "req", cluster_pid,
                         obs::kLaneNet, engine.now(), job.id);
            settle(job.id);
          },
          /*tag=*/job.id);
    };
  }

  monitor.start();
  if (faults_on) {
    if (net_on)
      net_health->start();
    else
      health->start();
    injector->start();
  }
  if (overload_on) overload->start();

  // Watchdog rounds ride the load-sampling cadence unless a dedicated
  // period is configured — no new clock, no RNG, fully deterministic.
  std::function<void()> slow_tick;
  if (slow_on) {
    const Time slow_period =
        config_.slow_health.check_period_s > 0.0
            ? from_seconds(config_.slow_health.check_period_s)
            : config_.load_sample_period;
    slow_tick = [&, slow_period] {
      slow_health->check_now(node_ptrs);
      if (remaining > 0)
        engine.schedule_call_after(slow_period, &invoke_closure, &slow_tick);
    };
    engine.schedule_call_after(slow_period, &invoke_closure, &slow_tick);
  }

  // In-band load reports: every node periodically reports its last
  // monitor sample to each (current) master over the control plane. The
  // receiver's dispatch knowledge refreshes only from reports that were
  // actually delivered — lost or partitioned reports age the view, which
  // the RSRC staleness penalty and the two-choices fallback react to.
  std::function<void()> report_tick;
  if (net_on) {
    network->start();
    const Time report_period =
        config_.net.load_report_interval_s > 0
            ? from_seconds(config_.net.load_report_interval_s)
            : config_.load_sample_period;
    report_tick = [&, report_period] {
      const Time origin = monitor.last_sample_time();
      const std::vector<int>* masters_now =
          faults_on ? &membership->masters() : nullptr;
      const int static_masters = config_.m;
      const std::size_t receiver_count =
          masters_now != nullptr ? masters_now->size()
                                 : static_cast<std::size_t>(static_masters);
      for (int n = 0; n < config_.p; ++n) {
        if (!node_ptrs[static_cast<std::size_t>(n)]->alive()) continue;
        const LoadInfo info = monitor.info(static_cast<std::size_t>(n));
        for (std::size_t ri = 0; ri < receiver_count; ++ri) {
          const int r = masters_now != nullptr
                            ? (*masters_now)[ri]
                            : static_cast<int>(ri);
          if (r == n) {
            // A master's knowledge of itself never crosses the wire.
            stale_view->apply_report(r, n, info, origin);
            if (config_.use_dispatch_feedback)
              feedbacks[static_cast<std::size_t>(r)].on_node_report(
                  static_cast<std::size_t>(n), info);
            continue;
          }
          network->send(n, r, net::MsgKind::kControl, [&, n, r, info,
                                                       origin] {
            if (!node_ptrs[static_cast<std::size_t>(r)]->alive()) return;
            stale_view->apply_report(r, n, info, origin);
            if (config_.use_dispatch_feedback)
              feedbacks[static_cast<std::size_t>(r)].on_node_report(
                  static_cast<std::size_t>(n), info);
            ++result.net_reports;
          });
        }
      }
      if (remaining > 0)
        engine.schedule_call_after(report_period, &invoke_closure,
                                   &report_tick);
    };
    engine.schedule_call_after(report_period, &invoke_closure, &report_tick);
  }

  // Periodic theta'_2 recomputation, running as long as work remains.
  // When the control plane owns the tuning, the unslewed update() would
  // stomp the slew-limited retune; the tick then only snapshots counters.
  const bool tuner_active = ctrl_on && config_.ctrl.tune_reservation;
  std::function<void()> reservation_tick = [&] {
    if (!tuner_active) reservation.update();
    ++result.reservation_updates;
    if (tracer != nullptr) {
      const Time now = engine.now();
      tracer->counter(obs::Category::kReservation, "theta_limit",
                      cluster_pid, now, reservation.theta_limit());
      tracer->counter(obs::Category::kReservation, "a_hat", cluster_pid,
                      now, reservation.a_hat());
      tracer->counter(obs::Category::kReservation, "r_hat", cluster_pid,
                      now, reservation.r_hat());
      tracer->counter(obs::Category::kReservation, "master_fraction",
                      cluster_pid, now, reservation.master_fraction());
    }
    if (remaining > 0)
      engine.schedule_call_after(config_.reservation_update_period,
                                 &invoke_closure, &reservation_tick);
  };
  engine.schedule_call_after(config_.reservation_update_period,
                             &invoke_closure, &reservation_tick);

  // Periodic time-series probe. The recorder is passive (no RNG, no state
  // the simulation reads back), so enabling it cannot perturb results.
  obs::ProbeRecorder* probes = config_.obs.probes;
  std::function<void()> probe_tick;
  std::vector<obs::NodeProbe> node_probes;  ///< reused across probe ticks
  if (probes != nullptr) {
    node_probes.reserve(nodes.size());
    probe_tick = [&] {
      const Time now = engine.now();
      node_probes.clear();
      for (const auto& node : nodes) {
        obs::NodeProbe probe;
        probe.cpu_busy = node->cpu_busy_until(now);
        probe.disk_busy = node->disk_busy_until(now);
        probe.run_queue = static_cast<int>(node->run_queue_length());
        probe.disk_queue = static_cast<int>(node->disk_queue_length());
        probe.mem_used_ratio =
            static_cast<double>(node->memory().used_pages()) /
            static_cast<double>(node->memory().capacity_pages());
        probe.alive = node->alive();
        node_probes.push_back(probe);
      }
      obs::ClusterProbe cluster_probe;
      cluster_probe.a_hat = reservation.a_hat();
      cluster_probe.r_hat = reservation.r_hat();
      cluster_probe.theta_limit = reservation.theta_limit();
      cluster_probe.master_fraction = reservation.master_fraction();
      if (net_on) {
        cluster_probe.net_active = true;
        cluster_probe.net_sent = static_cast<double>(network->sent());
        cluster_probe.net_lost = static_cast<double>(
            network->lost() + network->partition_drops());
        cluster_probe.net_rpc_retries =
            static_cast<double>(rpc->retries());
        cluster_probe.net_stale_fallbacks =
            static_cast<double>(result.net_stale_fallbacks);
        cluster_probe.net_split_brain_rounds =
            faults_on
                ? static_cast<double>(net_health->split_brain_rounds())
                : 0.0;
        cluster_probe.net_partition_active =
            network->partition_active() ? 1.0 : 0.0;
      }
      if (ctrl_on) {
        cluster_probe.ctrl_active = true;
        cluster_probe.ctrl_w_hat = estimator->w_hat();
        cluster_probe.ctrl_r_hat = estimator->r_hat();
        cluster_probe.ctrl_theta_target = reservation.theta_limit();
        cluster_probe.ctrl_powered = static_cast<double>(powered_count);
        cluster_probe.ctrl_m = static_cast<double>(view.m);
      }
      probes->sample(now, node_probes, cluster_probe);
      if (remaining > 0)
        engine.schedule_call_after(probes->interval(), &invoke_closure,
                                   &probe_tick);
    };
    engine.schedule_call_after(probes->interval(), &invoke_closure,
                               &probe_tick);
  }

  // Steady-state remote dispatch (no fault/overload/ctrl landing checks)
  // rides a pooled context instead of a job-capturing closure: zero
  // allocations per dispatched request once the pool is warm. The deque
  // gives stable addresses; contexts recycle through the free list.
  struct RemoteHop {
    sim::Job job;
    sim::Node* target = nullptr;
    std::vector<RemoteHop*>* free_list = nullptr;
    static void fire(void* ctx) {
      auto* hop = static_cast<RemoteHop*>(ctx);
      sim::Node* target = hop->target;
      sim::Job job = std::move(hop->job);
      hop->free_list->push_back(hop);
      target->submit(std::move(job));
    }
  };
  std::deque<RemoteHop> hop_pool;
  std::vector<RemoteHop*> hop_free;

  // Routes one admitted job and hands it to the chosen node (charging the
  // remote hop when needed). Shared by first dispatch and by client
  // retries of shed requests, so both take the identical path.
  route_and_submit = [&](sim::Job job) {
    const trace::TraceRecord& rec = job.request;
    view.now = engine.now();
    Decision decision = dispatcher_->route(rec, view);
    if (decision.node < 0 || decision.node >= config_.p)
      throw std::out_of_range("dispatcher routed outside the cluster");
    job.receiver = decision.receiver;
    if (faults_on && injector->any_down()) job.disrupted = true;
    const bool was_dynamic = rec.is_dynamic();

    // CGI-cache extension: the receiving master can serve a fresh cached
    // response as a plain file fetch, bypassing CGI execution entirely.
    bool cache_hit = false;
    if (cache_on && was_dynamic &&
        caches[static_cast<std::size_t>(decision.receiver)].lookup(
            rec.url_id, engine.now())) {
      cache_hit = true;
      decision.node = decision.receiver;
      decision.remote = false;
      decision.rsrc_w = -1.0;
      const std::uint64_t size_bytes = rec.size_bytes;
      job.request.cls = trace::RequestClass::kStatic;
      // Serve cost of the stored response: same size-coupled model the
      // generator uses for files (15027 bytes is the SPECweb96 mix mean).
      job.request.service_demand = from_seconds(
          (0.3 + 0.7 * size_bytes / 15027.0) / config_.cache_hit_mu);
      job.request.cpu_fraction = 0.4;
      job.request.mem_pages = size_bytes / config_.os.page_bytes + 1;
      if (spans != nullptr) {
        spans->on_class(job.id, false, job.request.service_demand);
        spans->note(job.id, "cache-hit", engine.now());
      }
    }
    job.remote = decision.remote;
    ++result.dispatch_requests;
    if (decision.remote) ++result.dispatch_remote;
    if (tracer != nullptr)
      tracer->instant(obs::Category::kDispatch,
                      cache_hit ? "cache-hit" : "dispatch", cluster_pid,
                      obs::kLaneDispatch, engine.now(),
                      {{"job", job.id},
                       {"receiver", decision.receiver},
                       {"node", decision.node},
                       {"remote", decision.remote ? 1 : 0},
                       {"dynamic", was_dynamic ? 1 : 0}});
    if (flow != nullptr)
      flow->flow(obs::Category::kRequest, 't', "req", cluster_pid,
                 obs::kLaneDispatch, engine.now(), job.id);
    if (!cache_hit && decision.rsrc_w >= 0.0 && was_dynamic)
      feedbacks[static_cast<std::size_t>(decision.receiver)].on_dispatch(
          static_cast<std::size_t>(decision.node), decision.rsrc_w);
    // Arm the hedge timer on first admission (client retries and drain
    // migrations re-enter here; the armed flag keeps one timer per job).
    // Until the trailing window primes there is no trustworthy tail
    // estimate, so early requests simply don't hedge.
    if (hedges_on && !job.hedge && !cache_hit &&
        (was_dynamic || config_.hedge.hedge_static)) {
      HedgeState& hs = hedge_state[static_cast<std::size_t>(job.id)];
      if (!hs.armed) {
        Time delay = 0;
        if (config_.hedge.delay_s > 0.0) {
          delay = from_seconds(config_.hedge.delay_s);
        } else {
          const TrailingQuantile& q =
              was_dynamic ? hedge_stretch_dyn : hedge_stretch_stat;
          // Adaptive rule: this request is overdue once it has been on
          // the cluster `delay_factor * p95-stretch` times its own
          // demand. Scaling by the demand gives every request the same
          // *relative* patience — elephants get hours, mice milliseconds.
          if (q.primed())
            delay = std::max(
                from_seconds(config_.hedge.min_delay_s),
                static_cast<Time>(config_.hedge.delay_factor * q.value() *
                                  static_cast<double>(
                                      job.request.service_demand)));
        }
        if (delay > 0) {
          hs.armed = true;
          const std::uint64_t hid = job.id;
          engine.schedule_after(delay, [&, hid] { hedge_fire(hid); });
        }
      }
    }
    sim::Node* target = node_ptrs[static_cast<std::size_t>(decision.node)];
    const int target_idx = decision.node;
    if (overload_on) overload->note_dispatch(target_idx);
    if (decision.remote && job.request.is_dynamic()) {
      if (overload_on) overload->note_waiting(job.id);
      // Without the net model the remote hop is a flat latency charge;
      // with it the RPC leg (begin_net) starts inside net_dispatch.
      if (!net_on && spans != nullptr)
        spans->begin_hop(job.id, engine.now());
      if (net_on) {
        // The dispatch hop is a real message now: sampled latency, loss
        // surfacing as RPC retransmits, failover past the attempt cap.
        net_dispatch(std::move(job), target_idx);
      } else if (faults_on || overload_on || hedges_on) {
        // The target may die during the dispatch hop (or already be dead
        // but undetected); the landing check routes the job into failover.
        // The client may also abandon it mid-hop, or — with hedging on —
        // the copy may have settled the request already.
        engine.schedule_after(
            config_.os.remote_cgi_latency, [&, target, target_idx, job] {
              if (overload_on && overload->consume_abandoned(job.id)) return;
              if (hedges_on && hedge_settled.seen(job.id)) return;
              if (target->alive()) {
                if (overload_on) overload->note_on_node(job.id, target_idx);
                hedge_note_node(job, target_idx);
                target->submit(job);
              } else if (ctrl_scaling) {
                // Powered down mid-hop (faults excluded by construction):
                // re-route, don't burn a failover retry.
                ++result.ctrl_migrations;
                route_and_submit(job);
              } else {
                if (overload_on)
                  overload->note_dispatch_failure(target_idx);
                redispatch(job);
              }
            });
      } else if (ctrl_scaling) {
        engine.schedule_after(config_.os.remote_cgi_latency,
                              [&, target, job] {
                                if (target->alive()) {
                                  target->submit(job);
                                  return;
                                }
                                ++result.ctrl_migrations;
                                route_and_submit(job);
                              });
      } else {
        RemoteHop* hop;
        if (!hop_free.empty()) {
          hop = hop_free.back();
          hop_free.pop_back();
        } else {
          hop_pool.emplace_back();
          hop = &hop_pool.back();
          hop->free_list = &hop_free;
        }
        hop->job = std::move(job);
        hop->target = target;
        engine.schedule_call_after(config_.os.remote_cgi_latency,
                                   &RemoteHop::fire, hop);
      }
    } else if (faults_on && !target->alive()) {
      if (overload_on) overload->note_dispatch_failure(target_idx);
      redispatch(job);
    } else if (ctrl_scaling && !target->alive()) {
      // The dispatcher's powered gate should make this unreachable, but a
      // same-instant race costs only a re-route, never a lost job.
      ++result.ctrl_migrations;
      route_and_submit(std::move(job));
    } else {
      if (overload_on) overload->note_on_node(job.id, target_idx);
      hedge_note_node(job, target_idx);
      target->submit(job);
    }
  };

  // Hedge fire: re-dispatch a copy of a still-unsettled request to the
  // next-best node, the primary's node excluded from the pick.
  if (hedges_on) {
    hedge_fire = [&](std::uint64_t id) {
      if (hedge_settled.seen(id)) return;
      HedgeState& hs = hedge_state[static_cast<std::size_t>(id)];
      if (hs.launched) return;
      if (hs.primary_node < 0) {
        // The primary is mid-hop or mid-backoff: check again shortly (the
        // terminal paths settle the id, so the re-check always ends).
        const Time recheck = std::max<Time>(
            from_seconds(config_.hedge.min_delay_s), kMillisecond);
        engine.schedule_after(recheck, [&, id] { hedge_fire(id); });
        return;
      }
      // The original (pre-cache-demotion) record: the copy is routed as
      // the request arrived, not as a cache hit may have rewritten it.
      const trace::TraceRecord rec = hedge_origins[hs.origin];
      view.now = engine.now();
      view.exclude_node = hs.primary_node;
      view.hedge_route = true;
      Decision decision = dispatcher_->route(rec, view);
      view.exclude_node = -1;
      view.hedge_route = false;
      if (decision.node < 0 || decision.node >= config_.p)
        throw std::out_of_range("dispatcher routed outside the cluster");
      sim::Node* target = node_ptrs[static_cast<std::size_t>(decision.node)];
      if (decision.node == hs.primary_node || !target->alive()) {
        // No distinct healthy target to hedge to.
        ++result.hedges_skipped;
        return;
      }
      hs.launched = true;
      hs.hedge_node = decision.node;
      ++result.hedges_launched;
      if (tracer != nullptr)
        tracer->instant(obs::Category::kDispatch, "hedge", cluster_pid,
                        obs::kLaneDispatch, engine.now(),
                        {{"job", id},
                         {"node", decision.node},
                         {"primary", hs.primary_node}});
      if (spans != nullptr)
        spans->note(id, "hedge", engine.now(), decision.node);
      obs::logf(obs::LogLevel::kDebug, "hedge",
                "t=%.3fs job %llu hedged to node %d (primary %d)",
                to_seconds(engine.now()),
                static_cast<unsigned long long>(id), decision.node,
                hs.primary_node);
      sim::Job copy;
      copy.id = id;
      copy.request = rec;
      copy.cluster_arrival = rec.arrival;
      copy.receiver = decision.receiver;
      copy.remote = true;
      copy.hedge = true;
      // The copy charges the flat remote hop; if the target dies (or the
      // request settles) before it lands, the copy just evaporates — the
      // primary still carries the request.
      engine.schedule_after(
          config_.os.remote_cgi_latency,
          [&, copy, node = decision.node]() mutable {
            if (hedge_settled.seen(copy.id)) return;
            sim::Node* t = node_ptrs[static_cast<std::size_t>(node)];
            if (!t->alive()) {
              hedge_state[static_cast<std::size_t>(copy.id)].hedge_node = -1;
              return;
            }
            t->submit(std::move(copy));
          });
    };
  }

  // Control tick: telemetry in, actions out, side effects executed here.
  // With the net model on the telemetry comes from the front-end master's
  // stale report feed — the controller sees exactly what crossed the wire,
  // so it honestly degrades (and retunes on old data) under partitions.
  std::function<void()> ctrl_tick;
  if (ctrl_on) {
    ctrl_tick = [&] {
      const Time now = engine.now();
      ctrl::Telemetry telemetry;
      telemetry.now = now;
      telemetry.powered = powered_count;
      telemetry.masters = view.m;
      telemetry.a_hat = reservation.a_hat_live();
      const LoadVec& seen =
          net_on ? stale_view->seen_by(0) : monitor.all();
      telemetry.busy.reserve(static_cast<std::size_t>(powered_count));
      for (int n = 0; n < powered_count; ++n) {
        const LoadInfo info = seen[static_cast<std::size_t>(n)];
        telemetry.busy.push_back(std::max(1.0 - info.cpu_idle_ratio,
                                          1.0 - info.disk_avail_ratio));
      }
      const ctrl::Actions actions = ctrl_loop->plan(telemetry, *estimator);

      if (actions.retune) {
        reservation.retune(actions.a, actions.r, actions.slew);
        ++result.ctrl_retunes;
        if (tracer != nullptr)
          tracer->instant(obs::Category::kCtrl, "retune", cluster_pid,
                          obs::kLaneCtrl, now,
                          {{"theta", reservation.theta_limit()},
                           {"w_hat", estimator->w_hat()},
                           {"r_hat", actions.r},
                           {"a_hat", actions.a}});
      }

      bool membership_dirty = false;
      if (actions.scale == ctrl::ScaleAction::kUp &&
          powered_count < config_.p) {
        const int woken = powered_count;
        result.energy_node_s +=
            static_cast<double>(powered_count) * to_seconds(now - energy_mark);
        energy_mark = now;
        node_ptrs[static_cast<std::size_t>(woken)]->power_up();
        powered_state[static_cast<std::size_t>(woken)] = 1;
        ++powered_count;
        ++result.ctrl_scale_ups;
        membership_dirty = true;
        if (tracer != nullptr)
          tracer->instant(obs::Category::kCtrl, "scale-up", cluster_pid,
                          obs::kLaneCtrl, now,
                          {{"node", woken}, {"powered", powered_count}});
        obs::logf(obs::LogLevel::kInfo, "ctrl",
                  "t=%.3fs scale-up: node %d powered (now %d)",
                  to_seconds(now), woken, powered_count);
      } else if (actions.scale == ctrl::ScaleAction::kDown &&
                 powered_count - 1 >= view.m &&
                 powered_count - 1 >= config_.ctrl.min_powered) {
        // Powered-prefix invariant: drain the highest powered node, which
        // is never a master.
        const int victim = powered_count - 1;
        result.energy_node_s +=
            static_cast<double>(powered_count) * to_seconds(now - energy_mark);
        energy_mark = now;
        powered_state[static_cast<std::size_t>(victim)] = 0;
        --powered_count;
        result.powered_min = std::min(result.powered_min, powered_count);
        std::vector<sim::Job> drained =
            node_ptrs[static_cast<std::size_t>(victim)]->power_down();
        ++result.ctrl_scale_downs;
        membership_dirty = true;
        if (tracer != nullptr)
          tracer->instant(obs::Category::kCtrl, "scale-down", cluster_pid,
                          obs::kLaneCtrl, now,
                          {{"node", victim},
                           {"powered", powered_count},
                           {"drained",
                            static_cast<std::uint64_t>(drained.size())}});
        obs::logf(obs::LogLevel::kInfo, "ctrl",
                  "t=%.3fs scale-down: node %d drained (%zu jobs migrate, "
                  "now %d powered)",
                  to_seconds(now), victim, drained.size(), powered_count);
        if (slow_on) slow_health->on_node_down(victim);
        // Drained jobs migrate over the remote-dispatch hop, never lost.
        for (sim::Job& job : drained) {
          if (hedges_on) {
            HedgeState& hs = hedge_state[static_cast<std::size_t>(job.id)];
            if (job.hedge) {
              // Copies don't migrate: the primary still carries the job.
              hs.hedge_node = -1;
              continue;
            }
            hs.primary_node = -1;
          }
          ++result.ctrl_migrations;
          if (spans != nullptr) {
            // Migration rides the remote-dispatch hop; charge it there.
            spans->begin_hop(job.id, now);
            spans->note(job.id, "migrate", now, victim);
          }
          if (overload_on) overload->note_waiting(job.id);
          sim::Job moved = std::move(job);
          engine.schedule_after(
              config_.os.remote_cgi_latency, [&, moved]() mutable {
                if (overload_on && overload->consume_abandoned(moved.id))
                  return;
                if (hedges_on && hedge_settled.seen(moved.id)) return;
                route_and_submit(std::move(moved));
              });
        }
      }

      if (actions.masters_target != view.m) {
        view.m = actions.masters_target;
        ++result.ctrl_retargets;
        membership_dirty = true;
        if (tracer != nullptr)
          tracer->instant(obs::Category::kCtrl, "retarget", cluster_pid,
                          obs::kLaneCtrl, now, {{"m", view.m}});
        obs::logf(obs::LogLevel::kInfo, "ctrl",
                  "t=%.3fs retarget: m -> %d", to_seconds(now), view.m);
      }
      if (membership_dirty)
        // Theorem 1 re-solves immediately on a cluster-shape change (the
        // cluster changed, not the estimate) — same rule as failover.
        reservation.set_membership(powered_count, view.m);

      if (remaining > 0)
        engine.schedule_call_after(from_seconds(config_.ctrl.interval_s),
                                   &invoke_closure, &ctrl_tick);
    };
    engine.schedule_call_after(from_seconds(config_.ctrl.interval_s),
                               &invoke_closure, &ctrl_tick);
  }

  // Load shedding: a shed request is retried by the client with the shared
  // backoff curve up to max_retries times, then counted shed for good —
  // never silently lost. Each retry is a fresh arrival at the front end
  // (re-judged by the admission policy).
  std::function<void(sim::Job, const char*)> shed_retry;
  if (overload_on) {
    shed_retry = [&](sim::Job job, const char* reason) {
      if (view.decisions != nullptr) {
        obs::DecisionRecord record;
        record.at = engine.now();
        record.dynamic = job.request.is_dynamic();
        record.receiver = -1;
        record.chosen = -1;
        record.remote = false;
        record.w = -1.0;
        record.reason = reason;
        view.decisions->record(std::move(record));
      }
      if (static_cast<int>(job.attempts) >= config_.overload.max_retries) {
        hedge_on_terminal(job.id);
        overload->count_shed(job.id);
        obs::logf(obs::LogLevel::kDebug, "overload",
                  "t=%.3fs job %llu shed for good (%s, %u retries)",
                  to_seconds(engine.now()),
                  static_cast<unsigned long long>(job.id), reason,
                  job.attempts);
        if (spans != nullptr)
          spans->terminal(job.id, obs::SpanOutcome::kShed, engine.now());
        if (flow != nullptr)
          flow->flow(obs::Category::kRequest, 'f', "req", cluster_pid,
                     obs::kLaneOverload, engine.now(), job.id);
        settle(job.id);
        return;
      }
      ++job.attempts;
      if (spans != nullptr) {
        // Client retry wait is part of getting admitted, so it charges to
        // the admission phase (not failover backoff).
        spans->begin_backoff(job.id, engine.now(), /*admission=*/true);
        spans->note(job.id, "retry", engine.now(), job.attempts);
      }
      overload->count_retry(job.id);
      overload->note_waiting(job.id);
      const Time delay = overload::backoff_delay(
          config_.overload.retry_backoff, job.attempts,
          &overload->retry_rng());
      engine.schedule_after(delay, [&, job]() mutable {
        if (overload->consume_abandoned(job.id)) return;
        if (faults_on && declared_healthy() == 0) {
          redispatch(std::move(job));
          return;
        }
        const char* again = overload->shed_reason(job.request.is_dynamic());
        if (again != nullptr) {
          shed_retry(std::move(job), again);
          return;
        }
        route_and_submit(std::move(job));
      });
    };
  }

  // Arrival cursor: delivers the pending record, then schedules the next
  // one. The pull happens first, so exhaustion is known before the current
  // request can settle; the event heap and the resident records stay
  // small regardless of trace length.
  std::function<void()> deliver = [&] {
    const trace::TraceRecord rec = pending;
    const bool more = source.next(pending);
    if (more) ++remaining;  // the new pending record
    const auto schedule_next = [&] {
      if (more)
        engine.schedule_call(pending.arrival, &invoke_closure, &deliver);
    };
    sim::Job job;
    job.id = ++result.submitted;  // dense ids from 1
    job.request = rec;
    if (hedges_on) {
      HedgeState hs;
      if (hedge_origin_free.empty()) {
        hs.origin = static_cast<std::uint32_t>(hedge_origins.size());
        hedge_origins.push_back(rec);
      } else {
        hs.origin = hedge_origin_free.back();
        hedge_origin_free.pop_back();
        hedge_origins[hs.origin] = rec;
      }
      hedge_state.push_back(hs);
    }
    job.cluster_arrival = engine.now();
    if (spans != nullptr)
      spans->on_arrival(job.id, engine.now(), rec.is_dynamic(),
                        rec.service_demand, cluster_pid);
    if (flow != nullptr)
      flow->flow(obs::Category::kRequest, 's', "req", cluster_pid,
                 obs::kLaneDispatch, engine.now(), job.id);
    if (ctrl_on) estimator->on_arrival();
    if (overload_on) overload->arm_deadline(job);
    if (faults_on && declared_healthy() == 0) {
      // Total outage: no declared-healthy front end can accept the
      // request; hold it in the failover queue (it retries with backoff
      // and times out at the cap if the outage persists).
      redispatch(std::move(job));
      schedule_next();
      return;
    }
    if (overload_on) {
      const char* reason = overload->shed_reason(rec.is_dynamic());
      if (reason != nullptr) {
        shed_retry(std::move(job), reason);
        schedule_next();
        return;
      }
    }
    route_and_submit(std::move(job));
    schedule_next();
  };
  engine.schedule_call(pending.arrival, &invoke_closure, &deliver);

  engine.run();

  result.metrics = metrics.summary();
  result.events = engine.events_processed();
  result.sim_seconds = to_seconds(engine.now());
  const Time end = engine.now();
  if (faults_on) {
    result.availability = injector->availability(end);
    result.node_crashes = injector->crashes();
    result.promotions = membership->promotions();
    result.degrade_events = injector->degrade_events();
    result.degraded_node_s = to_seconds(injector->degraded_until(end));
  }
  if (slow_on) {
    result.slow_degraded = slow_health->degrade_transitions();
    result.slow_recovered = slow_health->recover_transitions();
  }
  if (net_on) {
    result.net_sent = network->sent();
    result.net_wire_lost = network->lost();
    result.net_partition_drops = network->partition_drops();
    result.net_duplicates = rpc->duplicates();
    result.net_rpc_retries = rpc->retries();
    result.net_rpc_failures = rpc->failures();
    result.net_partitions = network->partitions_seen();
    if (faults_on) {
      result.net_stepdowns = net_health->stepdowns();
      result.net_split_brain_rounds = net_health->split_brain_rounds();
    }
  }
  if (ctrl_on) {
    result.ctrl_w_hat = estimator->w_hat();
    result.ctrl_r_hat = estimator->r_hat();
  }
  if (ctrl_scaling)
    result.energy_node_s +=
        static_cast<double>(powered_count) * to_seconds(end - energy_mark);
  else
    result.energy_node_s = static_cast<double>(config_.p) * to_seconds(end);
  if (overload_on) {
    result.shed = overload->shed_count();
    result.abandoned = overload->abandoned_count();
    result.overload_retries = overload->retry_count();
    result.breaker_trips = overload->breaker_trips();
    result.degraded_entries = overload->degraded_entries();
    result.degraded_seconds = to_seconds(overload->degraded_time(end));
  }
  // Goodput: in-SLO completions per second of measured simulated time
  // (plain throughput when no deadline is configured).
  const double measured_s = result.sim_seconds - to_seconds(config_.warmup);
  if (measured_s > 0.0)
    result.goodput_rps =
        static_cast<double>(result.metrics.completed_in_slo) / measured_s;
  result.node_cpu_utilization.reserve(nodes.size());
  result.node_disk_utilization.reserve(nodes.size());
  double cpu_sum = 0.0, disk_sum = 0.0;
  for (const auto& node : nodes) {
    const double denom = end > 0 ? static_cast<double>(end) : 1.0;
    const double cpu =
        static_cast<double>(node->cpu_busy_until(end)) / denom;
    const double disk =
        static_cast<double>(node->disk_busy_until(end)) / denom;
    result.node_cpu_utilization.push_back(cpu);
    result.node_disk_utilization.push_back(disk);
    cpu_sum += cpu;
    disk_sum += disk;
    const sim::NodeCounts& counts = node->counts();
    result.cpu_forks += counts.forks;
    result.cpu_context_switches += counts.context_switches;
    result.cpu_preemptions += counts.preemptions;
    result.cpu_slices += counts.cpu_slices;
    result.disk_slices += counts.disk_slices;
  }
  result.mean_cpu_utilization = cpu_sum / static_cast<double>(config_.p);
  result.mean_disk_utilization = disk_sum / static_cast<double>(config_.p);
  result.theta_limit = reservation.theta_limit();
  result.a_hat = reservation.a_hat();
  result.r_hat = reservation.r_hat();
  result.master_fraction = reservation.master_fraction();
  for (const auto& cache : caches) {
    result.cache_hits += cache.hits();
    result.cache_lookups += cache.lookups();
  }
  if (counters == nullptr) return result;
  // The metric table reads experiment-level results; its counter rows
  // touch only `run`, so wrapping the result is enough.
  ExperimentResult published;
  published.run = std::move(result);
  publish_counters(published, *counters);
  return std::move(published.run);
}

}  // namespace wsched::core
