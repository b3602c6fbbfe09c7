#include "core/cluster.hpp"

#include <algorithm>
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
#include "sim/id_window.hpp"
#include "sim/slot_pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace wsched::core {

namespace {

std::vector<std::unique_ptr<sim::Node>> make_nodes(
    sim::Engine& engine, const ClusterConfig& config) {
  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(static_cast<std::size_t>(config.p));
  for (int i = 0; i < config.p; ++i) {
    const sim::NodeParams params =
        config.node_params.empty()
            ? sim::NodeParams{}
            : config.node_params[static_cast<std::size_t>(i)];
    nodes.push_back(std::make_unique<sim::Node>(engine, config.os, params, i));
    nodes.back()->set_obs(
        {.trace = config.obs.trace, .spans = config.obs.spans});
  }
  return nodes;
}

std::vector<sim::Node*> raw(const std::vector<std::unique_ptr<sim::Node>>& v) {
  std::vector<sim::Node*> out;
  for (const auto& node : v) out.push_back(node.get());
  return out;
}

ReservationConfig reservation_config(const ClusterConfig& config) {
  ReservationConfig res_cfg = config.reservation;
  res_cfg.p = config.p;
  res_cfg.m = config.m;
  return res_cfg;
}

/// Per-request hedge bookkeeping, held in a job-id window from the oldest
/// unsettled request to the newest arrival. The primary/hedge node fields
/// track where each leg currently sits so the winner can cancel the loser
/// and the fire timer can exclude the primary's node from the copy's
/// candidate pool.
struct HedgeState {
  bool armed = false;     ///< hedge timer scheduled for this request
  bool launched = false;  ///< a copy was actually dispatched
  /// First settlement wins: set once per request (by the winning leg of an
  /// armed request, else when it leaves), so a racing loser completion
  /// (finished before its cancellation landed) is dropped and never
  /// double-counted.
  bool settled = false;
  int primary_node = -1;  ///< node the primary occupies (-1 = in flight)
  int hedge_node = -1;    ///< node the copy occupies (-1 = none)
  /// The request as it arrived, held in hedge_origins_ until it settles;
  /// null once settled, which lets the window's base pass the entry.
  trace::TraceRecord* origin = nullptr;
};

/// One replay of a record source through the cluster. The members are the
/// run's state; the methods are the steps a request moves through:
///
///   deliver -> admit -> dispatch -> [hop] -> land -> complete
///
/// with the side exits redispatch (failover), shed_retry (client retry of
/// a shed request), hedge_fire (the copy's own route and landing) and
/// terminal (every exit that does not complete). Each opt-in layer is
/// absent unless enabled: a disabled layer constructs nothing, schedules
/// nothing and draws nothing, so the run stays byte-identical to a build
/// without it. DESIGN.md "Request lifecycle in ClusterSim" maps the steps.
class ClusterRun {
 public:
  /// `first` is the source's first record; the source is pulled one
  /// record ahead of the clock from then on.
  ClusterRun(const ClusterConfig& config, Dispatcher& dispatcher,
             trace::RecordSource& source, const trace::TraceRecord& first)
      : config_(config),
        dispatcher_(dispatcher),
        source_(source),
        pending_(first) {
    if (config_.max_events > 0 || config_.wall_budget_s > 0.0) {
      engine_.set_guard(config_.max_events, config_.wall_budget_s);
      if (tracer_ != nullptr)
        engine_.set_guard_diagnostics(
            [tracer = tracer_] { return tracer->recent_summary(); });
    }
    setup_obs_lanes();
    result_.net_enabled = net_on_;
    result_.ctrl_enabled = ctrl_on_;
    result_.slow_health_enabled = slow_on_;
    result_.hedging_enabled = hedges_on_;
    result_.powered_min = config_.p;
    // With the net model on the monitor is no longer an oracle feed: the
    // feedback views refresh only from load reports that actually crossed
    // the wire (see report_tick).
    if (!net_on_)
      monitor_.set_on_sample([this] { feedback_.on_sample(monitor_.all()); });
    setup_ctrl();
    setup_net();
    setup_slow_health();
    setup_fault();
    setup_view();
    if (config_.metrics_tail_start > 0)
      metrics_.set_tail_start(config_.metrics_tail_start);
    if (config_.overload.deadline.any())
      metrics_.set_deadlines(from_seconds(config_.overload.deadline.static_s),
                             from_seconds(config_.overload.deadline.dynamic_s));
    setup_hedge();
    setup_overload();
    for (int i = 0; i < config_.p; ++i)
      nodes_[static_cast<std::size_t>(i)]->set_completion_callback(
          [this, i](const sim::Job& job, Time t) { complete(job, i, t); });
    if (faults_on_)
      injector_->set_on_crash([this](int node, std::vector<sim::Job> dropped) {
        on_crash(node, std::move(dropped));
      });
  }

  ClusterRun(const ClusterRun&) = delete;
  ClusterRun& operator=(const ClusterRun&) = delete;

  /// Starts the layers' own clocks and arms the ticks and the first
  /// arrival, in the order the event tie-break depends on.
  void start() {
    monitor_.start();
    if (faults_on_) {
      detector_->start();
      injector_->start();
    }
    if (overload_on_) overload_->start();
    // Watchdog rounds ride the load-sampling cadence unless a dedicated
    // period is configured — no new clock, no RNG, fully deterministic.
    if (slow_on_) {
      slow_period_ = config_.slow_health.check_period_s > 0.0
                         ? from_seconds(config_.slow_health.check_period_s)
                         : config_.load_sample_period;
      after<&ClusterRun::slow_tick>(slow_period_);
    }
    if (net_on_) {
      network_->start();
      report_period_ = config_.net.load_report_interval_s > 0
                           ? from_seconds(config_.net.load_report_interval_s)
                           : config_.load_sample_period;
      after<&ClusterRun::report_tick>(report_period_);
    }
    after<&ClusterRun::reservation_tick>(config_.reservation_update_period);
    if (probes_ != nullptr) {
      node_probes_.reserve(nodes_.size());
      after<&ClusterRun::probe_tick>(probes_->interval());
    }
    if (ctrl_on_)
      after<&ClusterRun::ctrl_tick>(from_seconds(config_.ctrl.interval_s));
    engine_.schedule_call(pending_.arrival, &call<&ClusterRun::deliver>, this);
  }

  void simulate() { engine_.run(); }
  /// Collects the run's end state into its result.
  RunResult finish() {
    const Time end = engine_.now();
    result_.metrics = metrics_.summary();
    result_.events = engine_.events_processed();
    result_.hedge_window_high_water = hedge_state_.high_water();
    result_.sim_seconds = to_seconds(end);
    if (faults_on_) {
      result_.availability = injector_->availability(end);
      result_.node_crashes = injector_->crashes();
      result_.promotions = membership_.promotions();
      result_.degrade_events = injector_->degrade_events();
      result_.degraded_node_s = to_seconds(injector_->degraded_until(end));
    }
    if (slow_on_) {
      result_.slow_degraded = slow_health_->degrade_transitions();
      result_.slow_recovered = slow_health_->recover_transitions();
    }
    if (net_on_) {
      result_.net_sent = network_->sent();
      result_.net_wire_lost = network_->lost();
      result_.net_partition_drops = network_->partition_drops();
      result_.net_duplicates = rpc_->duplicates();
      result_.net_rpc_retries = rpc_->retries();
      result_.net_rpc_failures = rpc_->failures();
      result_.net_partitions = network_->partitions_seen();
      if (faults_on_) {
        result_.net_stepdowns = detector_->stepdowns();
        result_.net_split_brain_rounds = detector_->split_brain_rounds();
      }
    }
    if (ctrl_on_) {
      result_.ctrl_w_hat = estimator_->w_hat();
      result_.ctrl_r_hat = estimator_->r_hat();
    }
    if (ctrl_scaling_)
      result_.energy_node_s +=
          static_cast<double>(powered_count_) * to_seconds(end - energy_mark_);
    else
      result_.energy_node_s = static_cast<double>(config_.p) * to_seconds(end);
    if (overload_on_) {
      result_.shed = overload_->shed_count();
      result_.abandoned = overload_->abandoned_count();
      result_.overload_retries = overload_->retry_count();
      result_.breaker_trips = overload_->breaker_trips();
      result_.degraded_entries = overload_->degraded_entries();
      result_.degraded_seconds = to_seconds(overload_->degraded_time(end));
    }
    // Goodput: in-SLO completions per second of measured simulated time
    // (plain throughput when no deadline is configured).
    const double measured_s = result_.sim_seconds - to_seconds(config_.warmup);
    if (measured_s > 0.0)
      result_.goodput_rps =
          static_cast<double>(result_.metrics.completed_in_slo) / measured_s;
    result_.node_cpu_utilization.reserve(nodes_.size());
    result_.node_disk_utilization.reserve(nodes_.size());
    double cpu_sum = 0.0, disk_sum = 0.0;
    const double denom = end > 0 ? static_cast<double>(end) : 1.0;
    for (const auto& node : nodes_) {
      const double cpu = static_cast<double>(node->cpu_busy_until(end)) / denom;
      const double disk =
          static_cast<double>(node->disk_busy_until(end)) / denom;
      result_.node_cpu_utilization.push_back(cpu);
      result_.node_disk_utilization.push_back(disk);
      cpu_sum += cpu;
      disk_sum += disk;
      const sim::NodeCounts& counts = node->counts();
      result_.cpu_forks += counts.forks;
      result_.cpu_context_switches += counts.context_switches;
      result_.cpu_preemptions += counts.preemptions;
      result_.cpu_slices += counts.cpu_slices;
      result_.disk_slices += counts.disk_slices;
    }
    result_.mean_cpu_utilization = cpu_sum / static_cast<double>(config_.p);
    result_.mean_disk_utilization = disk_sum / static_cast<double>(config_.p);
    result_.theta_limit = reservation_.theta_limit();
    result_.a_hat = reservation_.a_hat();
    result_.r_hat = reservation_.r_hat();
    result_.master_fraction = reservation_.master_fraction();
    for (const auto& cache : caches_) {
      result_.cache_hits += cache.hits();
      result_.cache_lookups += cache.lookups();
    }
    if (counters_ == nullptr) return std::move(result_);
    // The metric table reads experiment-level results; its counter rows
    // touch only `run`, so wrapping the result is enough.
    ExperimentResult published;
    published.run = std::move(result_);
    publish_counters(published, *counters_);
    return std::move(published.run);
  }

 private:
  /// A request step taken later: the dispatch hop, an RPC delivery or
  /// failure, a failover backoff, a client retry, a drain migration or a
  /// hedge copy's hop. Contexts are pooled, so once the pool is warm a
  /// deferred step costs no allocation.
  using Step = void (ClusterRun::*)(sim::Job, int);
  struct Deferred {
    ClusterRun* run = nullptr;
    Step step = nullptr;
    sim::Job job;
    int node = -1;
  };
  static void fire(void* ctx) {
    auto* deferred = static_cast<Deferred*>(ctx);
    ClusterRun& run = *deferred->run;
    const Step step = deferred->step;
    const int node = deferred->node;
    sim::Job job = std::move(deferred->job);
    run.deferred_.release(deferred);
    (run.*step)(std::move(job), node);
  }
  /// An RPC's failure handler: the held dispatch is lost, not landed.
  static void fire_lost(void* ctx) {
    static_cast<Deferred*>(ctx)->step = &ClusterRun::lost;
    fire(ctx);
  }

  Deferred* hold(Step step, sim::Job job, int node) {
    Deferred* deferred = deferred_.acquire();
    deferred->run = this;
    deferred->step = step;
    deferred->job = std::move(job);
    deferred->node = node;
    return deferred;
  }
  void defer(Time delay, Step step, sim::Job job, int node = -1) {
    engine_.schedule_call_after(delay, &ClusterRun::fire,
                                hold(step, std::move(job), node));
  }

  /// A load report in flight from node `from` to master `to`.
  struct Report {
    ClusterRun* run = nullptr;
    int from = 0;
    int to = 0;
    LoadInfo info;
    Time origin = 0;
  };
  static void report_arrived(void* ctx) {
    auto* held = static_cast<Report*>(ctx);
    const Report report = *held;
    report.run->reports_.release(held);
    report.run->on_report(report.from, report.to, report.info, report.origin,
                          /*wire=*/true);
  }

  /// A pending hedge timer (the first fire or a re-check).
  struct HedgeTimer {
    ClusterRun* run = nullptr;
    std::uint64_t id = 0;
  };
  static void hedge_timer_fired(void* ctx) {
    auto* timer = static_cast<HedgeTimer*>(ctx);
    ClusterRun& run = *timer->run;
    const std::uint64_t id = timer->id;
    run.hedge_timers_.release(timer);
    run.hedge_fire(id);
  }
  void hedge_after(Time delay, std::uint64_t id) {
    HedgeTimer* timer = hedge_timers_.acquire();
    *timer = HedgeTimer{this, id};
    engine_.schedule_call_after(delay, &ClusterRun::hedge_timer_fired, timer);
  }

  /// fn(void*) trampoline for the periodic ticks and the arrival cursor.
  template <void (ClusterRun::*Method)()>
  static void call(void* self) {
    (static_cast<ClusterRun*>(self)->*Method)();
  }

  template <void (ClusterRun::*Method)()>
  void after(Time delay) {
    engine_.schedule_call_after(delay, &call<Method>, this);
  }

  // --- setup, one method per layer, called in construction order ---
  void setup_obs_lanes() {
    if (tracer_ == nullptr) return;
    for (int i = 0; i < config_.p; ++i) {
      tracer_->name_process(i, (i < config_.m ? "master " : "slave ") +
                                   std::to_string(i));
      tracer_->name_thread(i, obs::kLaneRequest, "requests");
      tracer_->name_thread(i, obs::kLaneCpu, "cpu");
      tracer_->name_thread(i, obs::kLaneDisk, "disk");
      tracer_->name_thread(i, obs::kLaneFault, "fault");
    }
    tracer_->name_process(cluster_pid_, "cluster");
    tracer_->name_thread(cluster_pid_, obs::kLaneDispatch, "dispatch");
    tracer_->name_thread(cluster_pid_, obs::kLaneControl, "control");
    tracer_->name_thread(cluster_pid_, obs::kLaneOverload, "overload");
    // Gated on net_on_: naming the lane in a net-off run would change the
    // trace bytes and break the ideal() byte-identity contract.
    if (net_on_) tracer_->name_thread(cluster_pid_, obs::kLaneNet, "net");
    // Same contract for the control plane's lane.
    if (ctrl_on_) tracer_->name_thread(cluster_pid_, obs::kLaneCtrl, "ctrl");
  }

  void setup_ctrl() {
    if (!ctrl_on_) return;
    estimator_.emplace(
        ctrl::EstimatorConfig{.alpha = config_.ctrl.estimate_alpha,
                              .initial_w = config_.ctrl.initial_w,
                              .initial_r = config_.reservation.initial_r});
    ctrl_loop_.emplace(config_.ctrl, config_.p);
  }

  void setup_net() {
    if (!net_on_) return;
    network_.emplace(engine_, config_.net, config_.p, config_.seed);
    network_->set_hooks({.trace = tracer_, .cluster_pid = cluster_pid_});
    rpc_.emplace(engine_, *network_,
                 net::Rpc::Options{
                     .timeout = from_seconds(config_.net.rpc_timeout_s),
                     .max_attempts = config_.net.rpc_max_attempts,
                     .backoff = config_.net.rpc_backoff},
                 config_.seed);
    rpc_->set_hooks(
        {.trace = tracer_, .spans = spans_, .cluster_pid = cluster_pid_});
    stale_view_.emplace(config_.p);
  }

  void setup_slow_health() {
    if (!slow_on_) return;
    slow_health_.emplace(config_.p, config_.slow_health);
    slow_health_->set_on_transition(
        [this](int node, fault::NodeHealth from, fault::NodeHealth to) {
          on_slow_health(node, from, to);
        });
  }

  void setup_fault() {
    if (!faults_on_) return;
    const Time heartbeat = config_.fault.heartbeat_period > 0
                               ? config_.fault.heartbeat_period
                               : config_.load_sample_period;
    injector_.emplace(engine_, node_ptrs_, config_.fault, config_.m,
                      config_.seed);
    injector_->set_trace(tracer_);
    // One heartbeat detector. Over the net model the front end hears nodes
    // through the lossy, partitionable wire and the node rows feed the
    // quorum gate; without it every live node is heard and there is no
    // quorum (see net/net_health.hpp).
    detector_.emplace(
        engine_, node_ptrs_, network_ ? &*network_ : nullptr,
        net::NetHealth::Config{
            .period = heartbeat,
            .suspect_misses = config_.fault.suspect_misses,
            .dead_misses = config_.fault.dead_misses,
            .loss = net_on_ ? config_.net.loss : 0.0,
            .quorum = net_on_ && config_.net.quorum ? config_.p / 2 + 1 : 0,
            .masters = config_.m},
        config_.seed);
    detector_->set_hooks({.trace = tracer_, .cluster_pid = cluster_pid_});
    detector_->set_on_transition(
        [this](int node, fault::NodeHealth from, fault::NodeHealth to) {
          on_health(node, from, to);
        });
    if (!net_on_) return;
    membership_.set_promotion_gate(
        [this](int dead) { return promotion_allowed(dead); });
    membership_.set_promotion_filter(
        [this](int node) { return network_->front_end_reaches(node); });
    detector_->set_on_round([this] { retry_promotions(); });
  }

  void setup_view() {
    view_.load = &monitor_.all();
    if (config_.use_dispatch_feedback) view_.feedback = &feedback_;
    if (!config_.node_params.empty()) view_.node_params = &config_.node_params;
    view_.p = config_.p;
    view_.reservation = &reservation_;
    view_.rng = &dispatch_rng_;
    view_.blocked = &blocked_;
    view_.membership = &membership_;
    if (net_on_) {
      view_.network = &*network_;
      view_.stale = &*stale_view_;
      view_.stale_penalty_per_s = config_.net.stale_penalty_per_s;
      view_.stale_max_age_s = config_.net.stale_max_age_s;
      view_.stale_fallbacks = &result_.net_stale_fallbacks;
    }
    if (ctrl_on_) {
      view_.ctrl_active = true;
      if (config_.ctrl.use_estimated_w) view_.ctrl_w = estimator_->w_ref();
    }
    if (slow_on_) view_.slow_scale = &slow_health_->scale();
    view_.decisions = config_.obs.decisions;
    // The slow_penalty / hedged columns are opt-in so gray-off decision
    // CSVs keep their exact (golden-hashed) bytes.
    if (view_.decisions != nullptr && (slow_on_ || hedges_on_))
      view_.decisions->enable_gray_columns();
    view_.reservation_rejections = &result_.reservation_rejections;
  }

  void setup_hedge() {
    if (!hedges_on_) return;
    hedge_stretch_dyn_.set_min_samples(16);
    hedge_stretch_stat_.set_min_samples(16);
  }

  void setup_overload() {
    if (!overload_on_) return;
    overload_.emplace(engine_, node_ptrs_, config_.overload, config_.seed);
    overload_->set_hooks({.trace = tracer_, .cluster_pid = cluster_pid_});
    // Degraded static-only mode clamps the reservation: masters stop
    // accepting dynamic work entirely until the detector restores.
    overload_->set_on_degraded(
        [this](bool degraded) { reservation_.set_degraded(degraded); });
    // Abandonment is terminal: the request leaves the system here (the
    // controller already counted and traced it).
    overload_->set_on_abandon(
        [](void* self, std::uint64_t id) {
          static_cast<ClusterRun*>(self)->terminal(
              id, obs::SpanOutcome::kAbandoned, obs::kLaneOverload, [] {});
        },
        this);
    view_.breakers = overload_->breakers();
  }

  // --- request transitions ---
  /// Arrival cursor: delivers the pending record, then schedules the next
  /// one. The pull happens first, so exhaustion is known before the current
  /// request can settle; the event heap and the resident records stay small
  /// regardless of trace length.
  void deliver() {
    const trace::TraceRecord rec = pending_;
    const bool more = source_.next(pending_);
    if (more) ++remaining_;  // the new pending record
    // Dense ids from 1.
    sim::Job job{.id = ++result_.submitted,
                 .request = rec,
                 .cluster_arrival = engine_.now()};
    if (hedges_on_) {
      HedgeState& hs = *hedge_state_.ensure(job.id);
      hs.origin = hedge_origins_.acquire();
      *hs.origin = rec;
    }
    if (spans_ != nullptr)
      spans_->on_arrival(job.id, engine_.now(), rec.is_dynamic(),
                         rec.service_demand, cluster_pid_);
    if (flow_ != nullptr)
      flow_->flow(obs::Category::kRequest, 's', "req", cluster_pid_,
                  obs::kLaneDispatch, engine_.now(), job.id);
    if (ctrl_on_) estimator_->on_arrival();
    if (overload_on_) overload_->arm_deadline(job);
    admit(std::move(job));
    if (more)
      engine_.schedule_call(pending_.arrival, &call<&ClusterRun::deliver>,
                            this);
  }

  /// The front end's gates, for a fresh arrival and for a client retry
  /// alike: total outage holds the request in the failover queue (it retries
  /// with backoff and times out at the cap if the outage persists); the
  /// admission policy may shed it; otherwise it is dispatched.
  void admit(sim::Job job) {
    if (faults_on_ && declared_healthy() == 0) {
      redispatch(std::move(job));
      return;
    }
    const char* reason =
        overload_on_ ? overload_->shed_reason(job.request.is_dynamic())
                     : nullptr;
    if (reason != nullptr)
      shed_retry(std::move(job), reason);
    else
      dispatch(std::move(job));
  }

  Decision route(const trace::TraceRecord& rec) {
    view_.now = engine_.now();
    const Decision decision = dispatcher_.route(rec, view_);
    if (decision.node < 0 || decision.node >= config_.p)
      throw std::out_of_range("dispatcher routed outside the cluster");
    return decision;
  }

  /// Routes one admitted job and sends it to the chosen node: remote dynamic
  /// work takes the dispatch hop, everything else lands at once. Shared by
  /// first dispatch, client retries of shed requests and drain migrations,
  /// so all take the identical path.
  void dispatch(sim::Job job) {
    Decision decision = route(job.request);
    job.receiver = decision.receiver;
    if (faults_on_ && injector_->any_down()) job.disrupted = true;
    const bool was_dynamic = job.request.is_dynamic();

    // CGI-cache extension: the receiving master can serve a fresh cached
    // response as a plain file fetch, bypassing CGI execution entirely.
    bool cache_hit = false;
    if (cache_on_ && was_dynamic &&
        caches_[static_cast<std::size_t>(decision.receiver)].lookup(
            job.request.url_id, engine_.now())) {
      cache_hit = true;
      decision.node = decision.receiver;
      decision.remote = false;
      decision.rsrc_w = -1.0;
      const std::uint64_t size_bytes = job.request.size_bytes;
      job.request.cls = trace::RequestClass::kStatic;
      // Serve cost of the stored response: same size-coupled model the
      // generator uses for files (15027 bytes is the SPECweb96 mix mean).
      job.request.service_demand = from_seconds(
          (0.3 + 0.7 * size_bytes / 15027.0) / config_.cache_hit_mu);
      job.request.cpu_fraction = 0.4;
      job.request.mem_pages = size_bytes / config_.os.page_bytes + 1;
      if (spans_ != nullptr) {
        spans_->on_class(job.id, false, job.request.service_demand);
        spans_->note(job.id, "cache-hit", engine_.now());
      }
    }
    job.remote = decision.remote;
    ++result_.dispatch_requests;
    if (decision.remote) ++result_.dispatch_remote;
    if (tracer_ != nullptr)
      tracer_->instant(obs::Category::kDispatch,
                       cache_hit ? "cache-hit" : "dispatch", cluster_pid_,
                       obs::kLaneDispatch, engine_.now(),
                       {{"job", job.id},
                        {"receiver", decision.receiver},
                        {"node", decision.node},
                        {"remote", decision.remote ? 1 : 0},
                        {"dynamic", was_dynamic ? 1 : 0}});
    if (flow_ != nullptr)
      flow_->flow(obs::Category::kRequest, 't', "req", cluster_pid_,
                  obs::kLaneDispatch, engine_.now(), job.id);
    if (!cache_hit && decision.rsrc_w >= 0.0 && was_dynamic)
      feedback_.on_dispatch(static_cast<std::size_t>(decision.receiver),
                            static_cast<std::size_t>(decision.node),
                            decision.rsrc_w);
    if (hedges_on_ && !job.hedge && !cache_hit &&
        (was_dynamic || config_.hedge.hedge_static))
      arm_hedge(job, was_dynamic);
    if (overload_on_) overload_->note_dispatch(decision.node);
    if (decision.remote && job.request.is_dynamic())
      hop(std::move(job), decision.node);
    else
      land(std::move(job), decision.node);
  }

  /// The remote dispatch hop. Without the net model it is a flat latency
  /// charge; with it the hop is a real message: sampled latency, loss
  /// surfacing as RPC retransmits, failover past the attempt cap.
  void hop(sim::Job job, int node) {
    if (overload_on_) overload_->note_waiting(job.id);
    if (net_on_) {
      send(std::move(job), node);
      return;
    }
    if (spans_ != nullptr) spans_->begin_hop(job.id, engine_.now());
    defer(config_.os.remote_cgi_latency, &ClusterRun::land, std::move(job),
          node);
  }

  /// Dispatches one job to `node` over the at-least-once RPC wire
  /// (job.receiver must already be set).
  void send(sim::Job job, int node) {
    if (spans_ != nullptr) spans_->begin_net(job.id, engine_.now());
    const int receiver = job.receiver;
    const std::uint64_t tag = job.id;
    rpc_->call(receiver, node, &ClusterRun::fire, &ClusterRun::fire_lost,
               hold(&ClusterRun::land, std::move(job), node), tag);
  }

  /// The one landing rule, for every way a job reaches its target: local
  /// dispatch, the flat hop, RPC delivery and failover retries. A job the
  /// client abandoned (or a hedge copy settled) meanwhile is dropped. A
  /// target that died goes to failover; one the autoscaler powered down
  /// re-routes like a drained job, without burning a failover retry.
  /// Without the fault layer or the autoscaler nodes never go away.
  void land(sim::Job job, int node) {
    if (gone(job.id)) return;
    sim::Node* target = node_ptrs_[static_cast<std::size_t>(node)];
    if (target->alive()) {
      if (overload_on_) overload_->note_on_node(job.id, node);
      hedge_note_node(job, node);
      target->submit(std::move(job));
    } else if (faults_on_) {
      if (overload_on_) overload_->note_dispatch_failure(node);
      redispatch(std::move(job));
    } else if (ctrl_scaling_) {
      ++result_.ctrl_migrations;
      dispatch(std::move(job));
    }
  }

  /// Every RPC attempt of a dispatch failed. With the fault layer the job
  /// fails over; without it the dispatch is lost on the wire for good and
  /// counted as a timeout — never silently dropped.
  void lost(sim::Job job, int node) {
    if (gone(job.id)) return;
    if (overload_on_) overload_->note_dispatch_failure(node);
    if (faults_on_) {
      redispatch(std::move(job));
      return;
    }
    terminal(job.id, obs::SpanOutcome::kTimeout, obs::kLaneNet,
             [&] { count_timeout(job, /*on_wire=*/true); });
  }

  void complete(const sim::Job& job, int node, Time completion) {
    if (hedges_on_) {
      // First completion wins. A loser that finished before its
      // cancellation landed (or after a terminal settle) fails the claim
      // and is dropped without touching any counter.
      if (hedge_settled(job.id)) return;
      HedgeState& hs = *hedge_state_.find(job.id);
      if (hs.armed) {
        hs.settled = true;
        const int loser =
            job.hedge ? hs.primary_node : (hs.launched ? hs.hedge_node : -1);
        if (job.hedge) {
          ++result_.hedge_wins;
          if (spans_ != nullptr)
            spans_->note(job.id, "hedge-win", completion, node);
        }
        if (loser >= 0 && loser != node &&
            node_ptrs_[static_cast<std::size_t>(loser)]->cancel(job.id))
          ++result_.hedge_cancellations;
      }
    }
    // on_complete closes deadline tracking and feeds the breaker / admission
    // signals; false flags a completion racing an already-counted
    // abandonment, which must not be counted twice.
    if (overload_on_ && !overload_->on_complete(job, node, completion)) return;
    ++result_.completed;
    if (spans_ != nullptr) {
      // The final job is authoritative for class/demand (a cache hit may
      // have demoted a dynamic request mid-flight).
      spans_->on_class(job.id, job.request.is_dynamic(),
                       job.request.service_demand);
      spans_->terminal(job.id, obs::SpanOutcome::kCompleted, completion);
    }
    if (flow_ != nullptr)
      flow_->flow(obs::Category::kRequest, 'f', "req", node, obs::kLaneRequest,
                  completion, job.id);
    metrics_.record(job, completion);
    const Time sojourn = completion - job.cluster_arrival;
    // Stretch sample for the gray-failure watchdog: the node that served
    // the request is charged its normalized latency.
    if (slow_on_)
      slow_health_->on_completion(node, sojourn, job.request.service_demand);
    // Every counted completion feeds the trailing stretch quantile the
    // adaptive hedge-delay rule reads.
    if (hedges_on_)
      (job.request.is_dynamic() ? hedge_stretch_dyn_ : hedge_stretch_stat_)
          .add(static_cast<double>(sojourn) /
               static_cast<double>(
                   std::max<Time>(job.request.service_demand, 1)));
    reservation_.record_completion(job.request.is_dynamic(), sojourn);
    // Completed-job accounting for the online estimator: the OS model
    // consumed exactly the record's demand and CPU share, so they are the
    // finished request's ground truth (what a real server reads from
    // rusage at response time).
    if (ctrl_on_)
      estimator_->on_completion(job.request.is_dynamic(),
                                to_seconds(job.request.service_demand),
                                job.request.cpu_fraction);
    if (job.request.is_dynamic()) {
      feedback_.note_dynamic_demand(static_cast<std::size_t>(job.receiver),
                                    job.request.service_demand);
      if (cache_on_)
        caches_[static_cast<std::size_t>(job.receiver)].insert(
            job.request.url_id, completion);
    }
    settle(job.id);
  }

  /// Failover: a job stranded by a crash (in flight on the node, or routed
  /// to it before the failure was detected) is re-dispatched with the shared
  /// backoff curve, each hop charged the remote-dispatch latency; past the
  /// retry cap it is counted as timed out — never silently lost. Only
  /// reached with the fault layer on.
  void redispatch(sim::Job job) {
    // A settled request (its hedge copy won meanwhile) must not re-enter the
    // system; copies themselves never fail over.
    if (hedges_on_ && (job.hedge || hedge_settled(job.id))) return;
    job.disrupted = true;
    ++job.attempts;
    if (static_cast<int>(job.attempts) > config_.fault.max_redispatch) {
      terminal(job.id, obs::SpanOutcome::kTimeout, obs::kLaneDispatch,
               [&] { count_timeout(job, /*on_wire=*/false); });
      return;
    }
    ++result_.redispatches;
    if (tracer_ != nullptr)
      tracer_->instant(obs::Category::kDispatch, "redispatch", cluster_pid_,
                       obs::kLaneDispatch, engine_.now(),
                       {{"job", job.id},
                        {"attempts",
                         static_cast<std::uint64_t>(job.attempts)}});
    if (overload_on_) overload_->note_waiting(job.id);
    if (spans_ != nullptr) {
      // Failover wait charges to the backoff phase. Without the net model
      // the flat remote hop latency is folded into this same delay, so it
      // lands in backoff too (DESIGN.md section 15).
      spans_->begin_backoff(job.id, engine_.now(), /*admission=*/false);
      spans_->note(job.id, "redispatch", engine_.now(), job.attempts);
    }
    // With the net model on, the hop cost is the RPC wire itself (sampled
    // latency, retransmits) — not a flat add-on here.
    Time delay = overload::backoff_delay(config_.fault.redispatch_backoff,
                                         job.attempts, &fault_backoff_rng_);
    if (!net_on_) delay += config_.os.remote_cgi_latency;
    defer(delay, &ClusterRun::retry, std::move(job));
  }

  /// A failover backoff ends: the job is routed again, every hop remote.
  void retry(sim::Job job, int /*node*/) {
    if (gone(job.id)) return;
    if (declared_healthy() == 0) {
      // Total outage at retry time: go around again (and eventually time
      // out at the cap).
      redispatch(std::move(job));
      return;
    }
    const Decision decision = route(job.request);
    job.receiver = decision.receiver;
    job.remote = true;
    if (decision.rsrc_w >= 0.0 && job.request.is_dynamic())
      feedback_.on_dispatch(static_cast<std::size_t>(decision.receiver),
                            static_cast<std::size_t>(decision.node),
                            decision.rsrc_w);
    // Every failover hop crosses the wire when the net model is on: loss and
    // partition drops surface as RPC retries and, at the cap, another
    // failover. Without it the hop was charged in the backoff, and a target
    // that crashed again (or is still undetected) burns another retry in
    // land(); the breaker hears of the dispatch only on a live target.
    const bool live =
        net_on_ || node_ptrs_[static_cast<std::size_t>(decision.node)]->alive();
    if (overload_on_ && live) overload_->note_dispatch(decision.node);
    if (net_on_)
      send(std::move(job), decision.node);
    else
      land(std::move(job), decision.node);
  }

  /// Load shedding: a shed request is retried by the client with the shared
  /// backoff curve up to max_retries times, then counted shed for good —
  /// never silently lost. Each retry is a fresh arrival at the front end
  /// (re-judged by the admission policy).
  void shed_retry(sim::Job job, const char* reason) {
    if (view_.decisions != nullptr)
      view_.decisions->record({.at = engine_.now(),
                               .dynamic = job.request.is_dynamic(),
                               .receiver = -1,
                               .chosen = -1,
                               .remote = false,
                               .w = -1.0,
                               .reason = reason});
    if (static_cast<int>(job.attempts) >= config_.overload.max_retries) {
      terminal(job.id, obs::SpanOutcome::kShed, obs::kLaneOverload,
               [&] { count_shed(job, reason); });
      return;
    }
    ++job.attempts;
    if (spans_ != nullptr) {
      // Client retry wait is part of getting admitted, so it charges to the
      // admission phase (not failover backoff).
      spans_->begin_backoff(job.id, engine_.now(), /*admission=*/true);
      spans_->note(job.id, "retry", engine_.now(), job.attempts);
    }
    overload_->count_retry(job.id);
    overload_->note_waiting(job.id);
    const Time delay = overload::backoff_delay(
        config_.overload.retry_backoff, job.attempts, &overload_->retry_rng());
    defer(delay, &ClusterRun::readmit, std::move(job));
  }

  /// A shed request's client retries: a fresh pass through the front end.
  void readmit(sim::Job job, int /*node*/) {
    if (overload_->consume_abandoned(job.id)) return;
    admit(std::move(job));
  }

  /// A job drained off a powered-down node arrives back at the front end
  /// after the remote-dispatch hop and is routed again.
  void rejoin(sim::Job job, int /*node*/) {
    if (gone(job.id)) return;
    dispatch(std::move(job));
  }

  /// Hedge fire: re-dispatch a copy of a still-unsettled request to the
  /// next-best node, the primary's node excluded from the pick.
  void hedge_fire(std::uint64_t id) {
    if (hedge_settled(id)) return;
    HedgeState& hs = *hedge_state_.find(id);
    if (hs.launched) return;
    if (hs.primary_node < 0) {
      // The primary is mid-hop or mid-backoff: check again shortly (the
      // terminal paths settle the id, so the re-check always ends).
      const Time recheck =
          std::max<Time>(from_seconds(config_.hedge.min_delay_s), kMillisecond);
      hedge_after(recheck, id);
      return;
    }
    // The original (pre-cache-demotion) record: the copy is routed as the
    // request arrived, not as a cache hit may have rewritten it.
    const trace::TraceRecord rec = *hs.origin;
    view_.exclude_node = hs.primary_node;
    view_.hedge_route = true;
    const Decision decision = route(rec);
    view_.exclude_node = -1;
    view_.hedge_route = false;
    if (decision.node == hs.primary_node ||
        !node_ptrs_[static_cast<std::size_t>(decision.node)]->alive()) {
      // No distinct healthy target to hedge to.
      ++result_.hedges_skipped;
      return;
    }
    hs.launched = true;
    hs.hedge_node = decision.node;
    ++result_.hedges_launched;
    if (tracer_ != nullptr)
      tracer_->instant(obs::Category::kDispatch, "hedge", cluster_pid_,
                       obs::kLaneDispatch, engine_.now(),
                       {{"job", id},
                        {"node", decision.node},
                        {"primary", hs.primary_node}});
    if (spans_ != nullptr)
      spans_->note(id, "hedge", engine_.now(), decision.node);
    obs::logf(obs::LogLevel::kDebug, "hedge",
              "t=%.3fs job %llu hedged to node %d (primary %d)",
              to_seconds(engine_.now()), static_cast<unsigned long long>(id),
              decision.node, hs.primary_node);
    defer(config_.os.remote_cgi_latency, &ClusterRun::land_copy,
          sim::Job{.id = id,
                   .request = rec,
                   .cluster_arrival = rec.arrival,
                   .remote = true,
                   .receiver = decision.receiver,
                   .hedge = true},
          decision.node);
  }

  /// A hedge copy charges the flat remote hop; if the target dies (or the
  /// request settles) before it lands, the copy just evaporates — the
  /// primary still carries the request.
  void land_copy(sim::Job job, int node) {
    if (hedge_settled(job.id)) return;
    sim::Node* target = node_ptrs_[static_cast<std::size_t>(node)];
    if (!target->alive()) {
      hedge_state_.find(job.id)->hedge_node = -1;
      return;
    }
    target->submit(std::move(job));
  }

  /// Every exit that does not complete — failover timeout, wire loss, shed
  /// for good, abandonment — ends here: the outstanding hedge copy is
  /// cancelled, `note` takes the exit's own count, trace instant and log
  /// line, then the span closes and the request settles. The ledger
  /// `submitted == completed + timeouts + shed + abandoned` so closes exactly
  /// even when a copy is still in flight at terminal time.
  template <typename Note>
  void terminal(std::uint64_t id, obs::SpanOutcome outcome, int lane,
                Note note) {
    hedge_on_terminal(id);
    note();
    if (spans_ != nullptr) spans_->terminal(id, outcome, engine_.now());
    if (flow_ != nullptr)
      flow_->flow(obs::Category::kRequest, 'f', "req", cluster_pid_, lane,
                  engine_.now(), id);
    settle(id);
  }

  void count_timeout(const sim::Job& job, bool on_wire) {
    if (overload_on_) overload_->forget(job.id);
    ++result_.timeouts;
    if (tracer_ != nullptr)
      tracer_->instant(obs::Category::kDispatch, "timeout", cluster_pid_,
                       obs::kLaneDispatch, engine_.now(),
                       {{"job", job.id},
                        {"attempts",
                         static_cast<std::uint64_t>(job.attempts)}});
    const auto id = static_cast<unsigned long long>(job.id);
    if (on_wire)
      obs::logf(obs::LogLevel::kWarn, "net",
                "t=%.3fs job %llu lost on the wire after %d attempts",
                to_seconds(engine_.now()), id, config_.net.rpc_max_attempts);
    else
      obs::logf(obs::LogLevel::kWarn, "failover",
                "t=%.3fs job %llu timed out after %u attempts",
                to_seconds(engine_.now()), id, job.attempts);
  }

  void count_shed(const sim::Job& job, const char* reason) {
    overload_->count_shed(job.id);
    obs::logf(obs::LogLevel::kDebug, "overload",
              "t=%.3fs job %llu shed for good (%s, %u retries)",
              to_seconds(engine_.now()),
              static_cast<unsigned long long>(job.id), reason, job.attempts);
  }

  // --- request bookkeeping ---
  /// True when the request left while its job was in flight: the client
  /// abandoned it (consuming the controller's flag), or a hedge copy
  /// settled it.
  bool gone(std::uint64_t id) {
    return (overload_on_ && overload_->consume_abandoned(id)) ||
           (hedges_on_ && hedge_settled(id));
  }
  /// A retired id (below the window's base) has settled.
  bool hedge_settled(std::uint64_t id) const {
    const HedgeState* hs = hedge_state_.find(id);
    return hs == nullptr || hs->settled;
  }

  /// Arms the hedge timer on first admission (client retries and drain
  /// migrations re-enter dispatch; the armed flag keeps one timer per job).
  /// Until the trailing window primes there is no trustworthy tail
  /// estimate, so early requests simply don't hedge.
  void arm_hedge(const sim::Job& job, bool was_dynamic) {
    HedgeState* const entry = hedge_state_.find(job.id);
    if (entry == nullptr || entry->armed) return;
    HedgeState& hs = *entry;
    Time delay = 0;
    if (config_.hedge.delay_s > 0.0) {
      delay = from_seconds(config_.hedge.delay_s);
    } else {
      const TrailingQuantile& q =
          was_dynamic ? hedge_stretch_dyn_ : hedge_stretch_stat_;
      // Adaptive rule: this request is overdue once it has been on the
      // cluster `delay_factor * p95-stretch` times its own demand. Scaling
      // by the demand gives every request the same *relative* patience —
      // elephants get hours, mice milliseconds.
      if (q.primed())
        delay = std::max(
            from_seconds(config_.hedge.min_delay_s),
            static_cast<Time>(config_.hedge.delay_factor * q.value() *
                              static_cast<double>(job.request.service_demand)));
    }
    if (delay <= 0) return;
    hs.armed = true;
    hedge_after(delay, job.id);
  }

  /// Records where a job landed, or -1 when it left its node unfinished
  /// (copies and primaries track separately).
  void hedge_note_node(const sim::Job& job, int node) {
    if (!hedges_on_) return;
    HedgeState* hs = hedge_state_.find(job.id);
    if (hs == nullptr) return;  // retired: nothing reads it again
    if (job.hedge)
      hs->hedge_node = node;
    else
      hs->primary_node = node;
  }

  /// Settles the hedge race for a request leaving without completing and
  /// cancels its outstanding copy.
  void hedge_on_terminal(std::uint64_t id) {
    if (!hedges_on_ || hedge_settled(id)) return;
    HedgeState& hs = *hedge_state_.find(id);
    if (!hs.armed) return;
    hs.settled = true;
    if (hs.launched && hs.hedge_node >= 0 &&
        node_ptrs_[static_cast<std::size_t>(hs.hedge_node)]->cancel(id))
      ++result_.hedge_cancellations;
  }

  /// A request leaves the system for good (completed, timed out, shed or
  /// abandoned): its hedge origin is released, the hedge window's base
  /// moves past every settled request at its front, and the run stops
  /// once nothing is pending or unsettled.
  void settle(std::uint64_t id) {
    if (hedges_on_) {
      HedgeState& hs = *hedge_state_.find(id);
      hs.settled = true;
      hedge_origins_.release(hs.origin);
      hs.origin = nullptr;
      while (!hedge_state_.empty() && hedge_state_.front().origin == nullptr)
        hedge_state_.pop_front();
    }
    if (--remaining_ == 0) engine_.stop();
  }

  /// Healthy count as the front end *believes* it (false suspicion under
  /// the net model included). Only meaningful with the fault layer on.
  int declared_healthy() const { return detector_->healthy_count(); }

  // --- layer callbacks ---
  void on_crash(int node, std::vector<sim::Job> dropped) {
    for (sim::Job& job : dropped) {
      // A copy dies with its node; the primary still carries the request,
      // so nothing re-dispatches and nothing is lost.
      hedge_note_node(job, -1);
      if (job.hedge) continue;
      // Each stranded request is one failed dispatch for the breaker.
      if (overload_on_) overload_->note_dispatch_failure(node);
      redispatch(std::move(job));
    }
  }

  void on_health(int node, fault::NodeHealth from, fault::NodeHealth to) {
    // Dispatch excludes suspected and dead nodes alike.
    blocked_.set(node, kBlockDeclared, to != fault::NodeHealth::kHealthy);
    if (tracer_ != nullptr)
      tracer_->instant(obs::Category::kFault, "health", node, obs::kLaneFault,
                       engine_.now(),
                       {{"from", fault::to_string(from)},
                        {"to", fault::to_string(to)}});
    obs::logf(obs::LogLevel::kDebug, "health", "t=%.3fs node %d %s -> %s",
              to_seconds(engine_.now()), node, fault::to_string(from),
              fault::to_string(to));
    // Roles follow *declared* state: promotion and the Theorem-1 re-sizing
    // of theta'_2 happen at detection time, not crash time.
    if (to == fault::NodeHealth::kDead) {
      // A dead node's latency history describes a machine that no longer
      // exists; the watchdog forgets it.
      if (slow_on_) slow_health_->on_node_down(node);
      const bool was_master = membership_.is_master(node);
      const int promoted = membership_.mark_dead(node);
      if (promoted >= 0) {
        note_promotion(promoted, node);
      } else if (net_on_ && was_master) {
        // Quorum gate (or reachability filter) blocked the election; park
        // it for the per-round retry.
        pending_promotions_.push_back(node);
      }
    } else if (to == fault::NodeHealth::kHealthy) {
      membership_.mark_alive(node);
      if (net_on_) {
        pending_promotions_.erase(std::remove(pending_promotions_.begin(),
                                              pending_promotions_.end(), node),
                                  pending_promotions_.end());
        detector_->set_claim(node, membership_.is_master(node));
      }
    } else {
      return;  // suspected: candidate pools shrink, roles unchanged
    }
    reservation_.set_membership(membership_.effective_p(),
                                membership_.effective_m());
  }

  void on_slow_health(int node, fault::NodeHealth from,
                      fault::NodeHealth to) {
    if (config_.slow_health.exclude)
      blocked_.set(node, kBlockSlow, to == fault::NodeHealth::kDegraded);
    if (tracer_ != nullptr)
      tracer_->instant(obs::Category::kFault, "slow-health", node,
                       obs::kLaneFault, engine_.now(),
                       {{"from", fault::to_string(from)},
                        {"to", fault::to_string(to)},
                        {"ewma", slow_health_->ewma(node)}});
    obs::logf(obs::LogLevel::kInfo, "slow-health",
              "t=%.3fs node %d %s -> %s (stretch ewma %.2f)",
              to_seconds(engine_.now()), node, fault::to_string(from),
              fault::to_string(to), slow_health_->ewma(node));
  }

  void note_promotion(int promoted, int replaced) {
    if (tracer_ != nullptr)
      tracer_->instant(obs::Category::kFault, "promote", promoted,
                       obs::kLaneFault, engine_.now(),
                       {{"replaces", replaced}});
    obs::logf(obs::LogLevel::kInfo, "membership",
              "t=%.3fs slave %d promoted to master (replacing %d)",
              to_seconds(engine_.now()), promoted, replaced);
    // The promoted node now claims the role in the distributed view.
    if (net_on_) detector_->set_claim(promoted, true);
  }

  /// Split-brain safety: a dead master's role moves only when a majority of
  /// live observers corroborate the death AND the serving side holds
  /// quorum; the replacement must itself be reachable from the front end
  /// (never elect a minority-side slave).
  bool promotion_allowed(int dead) const {
    if (!config_.net.quorum) return true;
    const int q = config_.p / 2 + 1;
    return detector_->dead_votes(dead) >= q &&
           detector_->healthy_count() >= q;
  }

  void retry_promotions() {
    for (std::size_t i = 0; i < pending_promotions_.size();) {
      const int dead = pending_promotions_[i];
      const int promoted = membership_.retry_promotion(dead);
      if (promoted >= 0) {
        note_promotion(promoted, dead);
        reservation_.set_membership(membership_.effective_p(),
                                    membership_.effective_m());
      }
      // Drop the entry once resolved: the role moved, or the node came back
      // (retry_promotion returns -1 for both and the kHealthy transition
      // also erases revived nodes).
      if (promoted >= 0 || !membership_.is_master(dead) ||
          node_ptrs_[static_cast<std::size_t>(dead)]->alive()) {
        pending_promotions_.erase(pending_promotions_.begin() +
                                  static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  /// A load report from node `from` reaches master `to`: over the wire,
  /// where a receiver that died meanwhile drops it, or as a master's
  /// knowledge of itself, which never crosses the wire.
  void on_report(int from, int to, const LoadInfo& info, Time origin,
                 bool wire) {
    if (wire && !node_ptrs_[static_cast<std::size_t>(to)]->alive()) return;
    stale_view_->apply_report(to, from, info, origin);
    if (config_.use_dispatch_feedback)
      feedback_.on_node_report(static_cast<std::size_t>(to),
                               static_cast<std::size_t>(from), info);
    if (wire) ++result_.net_reports;
  }

  // --- periodic ticks ---
  void slow_tick() {
    slow_health_->check_now(node_ptrs_);
    if (remaining_ > 0) after<&ClusterRun::slow_tick>(slow_period_);
  }

  /// In-band load reports: every node periodically reports its last monitor
  /// sample to each (current) master over the control plane. The receiver's
  /// dispatch knowledge refreshes only from reports that were actually
  /// delivered — lost or partitioned reports age the view, which the RSRC
  /// staleness penalty and the two-choices fallback react to.
  void report_tick() {
    const Time origin = monitor_.last_sample_time();
    const std::vector<int>* masters_now =
        faults_on_ ? &membership_.masters() : nullptr;
    const std::size_t receiver_count =
        masters_now != nullptr ? masters_now->size()
                               : static_cast<std::size_t>(config_.m);
    for (int n = 0; n < config_.p; ++n) {
      if (!node_ptrs_[static_cast<std::size_t>(n)]->alive()) continue;
      const LoadInfo info = monitor_.info(static_cast<std::size_t>(n));
      for (std::size_t ri = 0; ri < receiver_count; ++ri) {
        const int r =
            masters_now != nullptr ? (*masters_now)[ri] : static_cast<int>(ri);
        if (r == n)
          on_report(n, r, info, origin, /*wire=*/false);
        else
          send_report(Report{this, n, r, info, origin});
      }
    }
    if (remaining_ > 0) after<&ClusterRun::report_tick>(report_period_);
  }

  void send_report(const Report& report) {
    Report* held = reports_.acquire();
    *held = report;
    if (!network_->send(report.from, report.to, net::MsgKind::kControl,
                        &ClusterRun::report_arrived, held))
      reports_.release(held);
  }

  /// Periodic theta'_2 recomputation, running as long as work remains.
  void reservation_tick() {
    if (!tuner_active_) reservation_.update();
    ++result_.reservation_updates;
    if (tracer_ != nullptr) {
      const Time now = engine_.now();
      tracer_->counter(obs::Category::kReservation, "theta_limit", cluster_pid_,
                       now, reservation_.theta_limit());
      tracer_->counter(obs::Category::kReservation, "a_hat", cluster_pid_, now,
                       reservation_.a_hat());
      tracer_->counter(obs::Category::kReservation, "r_hat", cluster_pid_, now,
                       reservation_.r_hat());
      tracer_->counter(obs::Category::kReservation, "master_fraction",
                       cluster_pid_, now, reservation_.master_fraction());
    }
    if (remaining_ > 0)
      after<&ClusterRun::reservation_tick>(config_.reservation_update_period);
  }

  /// Periodic time-series probe. The recorder is passive (no RNG, no state
  /// the simulation reads back), so enabling it cannot perturb results.
  void probe_tick() {
    const Time now = engine_.now();
    node_probes_.clear();
    for (const auto& node : nodes_) {
      obs::NodeProbe probe;
      probe.cpu_busy = node->cpu_busy_until(now);
      probe.disk_busy = node->disk_busy_until(now);
      probe.run_queue = static_cast<int>(node->run_queue_length());
      probe.disk_queue = static_cast<int>(node->disk_queue_length());
      probe.mem_used_ratio =
          static_cast<double>(node->memory().used_pages()) /
          static_cast<double>(node->memory().capacity_pages());
      probe.alive = node->alive();
      node_probes_.push_back(probe);
    }
    obs::ClusterProbe cluster_probe;
    cluster_probe.a_hat = reservation_.a_hat();
    cluster_probe.r_hat = reservation_.r_hat();
    cluster_probe.theta_limit = reservation_.theta_limit();
    cluster_probe.master_fraction = reservation_.master_fraction();
    if (net_on_) {
      cluster_probe.net_active = true;
      cluster_probe.net_sent = static_cast<double>(network_->sent());
      cluster_probe.net_lost =
          static_cast<double>(network_->lost() + network_->partition_drops());
      cluster_probe.net_rpc_retries = static_cast<double>(rpc_->retries());
      cluster_probe.net_stale_fallbacks =
          static_cast<double>(result_.net_stale_fallbacks);
      cluster_probe.net_split_brain_rounds =
          faults_on_ ? static_cast<double>(detector_->split_brain_rounds())
                     : 0.0;
      cluster_probe.net_partition_active =
          network_->partition_active() ? 1.0 : 0.0;
    }
    if (ctrl_on_) {
      cluster_probe.ctrl_active = true;
      cluster_probe.ctrl_w_hat = estimator_->w_hat();
      cluster_probe.ctrl_r_hat = estimator_->r_hat();
      cluster_probe.ctrl_theta_target = reservation_.theta_limit();
      cluster_probe.ctrl_powered = static_cast<double>(powered_count_);
      cluster_probe.ctrl_m = static_cast<double>(masters_);
    }
    probes_->sample(now, node_probes_, cluster_probe);
    if (remaining_ > 0) after<&ClusterRun::probe_tick>(probes_->interval());
  }

  /// Control tick: telemetry in, actions out, side effects executed here.
  /// With the net model on the telemetry comes from the front-end master's
  /// stale report feed — the controller sees exactly what crossed the wire,
  /// so it honestly degrades (and retunes on old data) under partitions.
  void ctrl_tick() {
    const Time now = engine_.now();
    ctrl::Telemetry telemetry;
    telemetry.now = now;
    telemetry.powered = powered_count_;
    telemetry.masters = masters_;
    telemetry.a_hat = reservation_.a_hat_live();
    const LoadVec& seen = net_on_ ? stale_view_->seen_by(0) : monitor_.all();
    telemetry.busy.reserve(static_cast<std::size_t>(powered_count_));
    for (int n = 0; n < powered_count_; ++n) {
      const LoadInfo info = seen[static_cast<std::size_t>(n)];
      telemetry.busy.push_back(
          std::max(1.0 - info.cpu_idle_ratio, 1.0 - info.disk_avail_ratio));
    }
    const ctrl::Actions actions = ctrl_loop_->plan(telemetry, *estimator_);

    if (actions.retune) {
      reservation_.retune(actions.a, actions.r, actions.slew);
      ++result_.ctrl_retunes;
      if (tracer_ != nullptr)
        tracer_->instant(obs::Category::kCtrl, "retune", cluster_pid_,
                         obs::kLaneCtrl, now,
                         {{"theta", reservation_.theta_limit()},
                          {"w_hat", estimator_->w_hat()},
                          {"r_hat", actions.r},
                          {"a_hat", actions.a}});
    }

    bool membership_dirty = false;
    if (actions.scale == ctrl::ScaleAction::kUp)
      membership_dirty = scale_up(now);
    else if (actions.scale == ctrl::ScaleAction::kDown)
      membership_dirty = scale_down(now);

    if (actions.masters_target != masters_) {
      masters_ = actions.masters_target;
      membership_.set_master_count(masters_);
      ++result_.ctrl_retargets;
      membership_dirty = true;
      if (tracer_ != nullptr)
        tracer_->instant(obs::Category::kCtrl, "retarget", cluster_pid_,
                         obs::kLaneCtrl, now, {{"m", masters_}});
      obs::logf(obs::LogLevel::kInfo, "ctrl", "t=%.3fs retarget: m -> %d",
                to_seconds(now), masters_);
    }
    if (membership_dirty)
      // Theorem 1 re-solves immediately on a cluster-shape change (the
      // cluster changed, not the estimate) — same rule as failover.
      reservation_.set_membership(powered_count_, masters_);

    if (remaining_ > 0)
      after<&ClusterRun::ctrl_tick>(from_seconds(config_.ctrl.interval_s));
  }

  /// Powers up the next node of the powered prefix, if any is left.
  bool scale_up(Time now) {
    if (powered_count_ >= config_.p) return false;
    const int woken = powered_count_;
    result_.energy_node_s +=
        static_cast<double>(powered_count_) * to_seconds(now - energy_mark_);
    energy_mark_ = now;
    node_ptrs_[static_cast<std::size_t>(woken)]->power_up();
    blocked_.set(woken, kBlockPoweredDown, false);
    ++powered_count_;
    ++result_.ctrl_scale_ups;
    if (tracer_ != nullptr)
      tracer_->instant(obs::Category::kCtrl, "scale-up", cluster_pid_,
                       obs::kLaneCtrl, now,
                       {{"node", woken}, {"powered", powered_count_}});
    obs::logf(obs::LogLevel::kInfo, "ctrl",
              "t=%.3fs scale-up: node %d powered (now %d)", to_seconds(now),
              woken, powered_count_);
    return true;
  }

  /// Drains the highest powered node, which by the powered-prefix invariant
  /// is never a master, unless that would cut below the masters or the
  /// configured floor. Drained jobs migrate over the remote-dispatch hop,
  /// never lost.
  bool scale_down(Time now) {
    if (powered_count_ - 1 < masters_ ||
        powered_count_ - 1 < config_.ctrl.min_powered)
      return false;
    const int victim = powered_count_ - 1;
    result_.energy_node_s +=
        static_cast<double>(powered_count_) * to_seconds(now - energy_mark_);
    energy_mark_ = now;
    blocked_.set(victim, kBlockPoweredDown, true);
    --powered_count_;
    result_.powered_min = std::min(result_.powered_min, powered_count_);
    std::vector<sim::Job> drained =
        node_ptrs_[static_cast<std::size_t>(victim)]->power_down();
    ++result_.ctrl_scale_downs;
    if (tracer_ != nullptr)
      tracer_->instant(
          obs::Category::kCtrl, "scale-down", cluster_pid_, obs::kLaneCtrl,
          now,
          {{"node", victim},
           {"powered", powered_count_},
           {"drained", static_cast<std::uint64_t>(drained.size())}});
    obs::logf(obs::LogLevel::kInfo, "ctrl",
              "t=%.3fs scale-down: node %d drained (%zu jobs migrate, now %d "
              "powered)",
              to_seconds(now), victim, drained.size(), powered_count_);
    if (slow_on_) slow_health_->on_node_down(victim);
    for (sim::Job& job : drained) {
      // Copies don't migrate: the primary still carries the job.
      hedge_note_node(job, -1);
      if (job.hedge) continue;
      ++result_.ctrl_migrations;
      if (spans_ != nullptr) {
        // Migration rides the remote-dispatch hop; charge it there.
        spans_->begin_hop(job.id, now);
        spans_->note(job.id, "migrate", now, victim);
      }
      if (overload_on_) overload_->note_waiting(job.id);
      defer(config_.os.remote_cgi_latency, &ClusterRun::rejoin, std::move(job));
    }
    return true;
  }

  const ClusterConfig& config_;
  Dispatcher& dispatcher_;
  trace::RecordSource& source_;
  /// The next arrival, fetched before the current one is delivered.
  trace::TraceRecord pending_;
  sim::Engine engine_;

  // Observability (all collectors optional; see obs/observer.hpp).
  obs::TraceSink* const tracer_ = config_.obs.trace;
  obs::CounterRegistry* const counters_ = config_.obs.counters;
  obs::SpanRecorder* const spans_ = config_.obs.spans;
  /// Flow events ride the trace but only exist when spans are on, so a
  /// span-off trace keeps its exact bytes.
  obs::TraceSink* const flow_ = spans_ != nullptr ? tracer_ : nullptr;
  obs::ProbeRecorder* const probes_ = config_.obs.probes;
  const int cluster_pid_ = config_.p;  ///< pseudo-pid for cluster lanes

  const bool net_on_ = config_.net.enabled;
  const bool ctrl_on_ = config_.ctrl.any();
  const bool ctrl_scaling_ = ctrl_on_ && config_.ctrl.autoscale;
  const bool slow_on_ = config_.slow_health.enabled;
  const bool hedges_on_ = config_.hedge.enabled;
  const bool faults_on_ = config_.fault.enabled;
  const bool overload_on_ = config_.overload.any();
  const bool cache_on_ = config_.cgi_cache_entries > 0;
  /// The control plane owns theta'_2 tuning: the reservation tick then
  /// only snapshots (the unslewed update() would stomp the retune).
  const bool tuner_active_ = ctrl_on_ && config_.ctrl.tune_reservation;

  /// Every outcome is tallied once, straight into the result; the counter
  /// registry is filled from it after the run (core/metric_table.hpp).
  RunResult result_;
  /// Unsettled requests plus the pending record: zero exactly when the
  /// source is exhausted and every delivered request has settled.
  std::uint64_t remaining_ = 1;

  std::vector<std::unique_ptr<sim::Node>> nodes_ = make_nodes(engine_, config_);
  std::vector<sim::Node*> node_ptrs_ = raw(nodes_);
  LoadMonitor monitor_{engine_, node_ptrs_, config_.load_sample_period};
  /// Dispatch knowledge for every potential receiver: a master only sees
  /// the shared periodic sample plus its own recent redirections. With the
  /// net model on there is no oracle broadcast: only the master that
  /// served a response learns its demand.
  DispatchFeedback feedback_{
      static_cast<std::size_t>(config_.p), static_cast<std::size_t>(config_.p),
      config_.load_sample_period, config_.initial_dynamic_demand_s,
      net_on_ ? DispatchFeedback::DemandScope::kPerReceiver
              : DispatchFeedback::DemandScope::kShared};
  ReservationController reservation_{reservation_config(config_)};
  /// One CGI result cache per potential receiver (the Swala extension).
  std::vector<CgiCache> caches_ = std::vector<CgiCache>(
      static_cast<std::size_t>(config_.p),
      CgiCache(config_.cgi_cache_entries, config_.cgi_cache_ttl));
  Rng dispatch_rng_{config_.seed, 0xD15};
  ClusterView view_;
  /// Dispatch block mask (ClusterView::blocked): reason bits per node,
  /// written where each layer hears its transition.
  BlockMask blocked_{static_cast<std::size_t>(config_.p)};
  MetricsCollector metrics_{config_.warmup, config_.os.fork_overhead};
  /// Failover re-dispatch delays follow the shared backoff curve; the
  /// dedicated stream keeps every other consumer's draws untouched, and a
  /// jitter-free (or fault-free) run draws nothing from it.
  Rng fault_backoff_rng_{config_.seed, 0xFA11B0FF};
  sim::SlotPool<Deferred> deferred_;

  // Self-tuning control plane.
  std::optional<ctrl::ParamEstimator> estimator_;
  std::optional<ctrl::ControlLoop> ctrl_loop_;
  int powered_count_ = config_.p;
  /// The master count the control plane steers; a retarget moves it and
  /// the membership's static split with it (refused under failover).
  int masters_ = config_.m;
  /// result_.energy_node_s sums closed powered windows; the open one
  /// starts at energy_mark_.
  Time energy_mark_ = 0;

  // Network fault model.
  std::optional<net::Network> network_;
  std::optional<net::Rpc> rpc_;
  std::optional<net::StaleClusterView> stale_view_;
  sim::SlotPool<Report> reports_;
  Time report_period_ = 0;

  // Latency-based gray-failure watchdog.
  std::optional<fault::SlowHealthMonitor> slow_health_;
  Time slow_period_ = 0;

  // Fault injection and failover.
  /// Roles, in every run: the static split without the fault layer,
  /// failover promotions with it.
  fault::Membership membership_{config_.p, config_.m, faults_on_};
  /// Heartbeat failure detector, with or without the net model.
  std::optional<net::NetHealth> detector_;
  std::optional<fault::FaultInjector> injector_;
  /// Quorum-deferred promotions: dead masters whose replacement could not
  /// be elected yet (no majority corroboration, or the front end itself
  /// lost quorum). Retried every detection round.
  std::vector<int> pending_promotions_;

  // Hedged dispatch.
  sim::IdWindow<HedgeState> hedge_state_;
  /// The request as it arrived (before any cache-hit demotion), which is
  /// what a hedge copy re-routes. Held only while the request is
  /// unsettled: slots are released at settlement.
  sim::SlotPool<trace::TraceRecord> hedge_origins_;
  sim::SlotPool<HedgeTimer> hedge_timers_;
  // Trailing per-class *stretch* p95 (sojourn normalized by the request's
  // demand) driving the adaptive hedge delay. Normalizing is what keeps
  // hedging from duplicating elephants: with heavy-tailed demands the
  // largest jobs dominate any raw-latency tail even on a healthy cluster,
  // and re-running them doubles real work. A stretch tail instead fires
  // only when a request has waited far longer than *its own* size
  // predicts — the signature of a limping or stalled server.
  TrailingQuantile hedge_stretch_dyn_{0.95};
  TrailingQuantile hedge_stretch_stat_{0.95};

  // Overload control.
  std::optional<overload::OverloadController> overload_;

  std::vector<obs::NodeProbe> node_probes_;  ///< reused across probe ticks
};

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
  if (config_.net.enabled && !config_.net.partitions.empty() &&
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
    if (config_.ctrl.retarget_masters && config_.fault.enabled)
      throw std::invalid_argument(
          "cluster: ctrl.retarget_masters and fault.enabled are mutually "
          "exclusive (under the fault layer, roles follow failover "
          "promotions, not the control plane)");
    if (config_.ctrl.retarget_masters && !config_.ctrl.autoscale)
      throw std::invalid_argument(
          "cluster: ctrl.retarget_masters requires ctrl.autoscale (the "
          "control loop retargets only alongside its power actions)");
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
  trace::TraceRecord first;
  if (!source.next(first)) return RunResult{};
  ClusterRun run(config_, *dispatcher_, source, first);
  run.start();
  run.simulate();
  return run.finish();
}

}  // namespace wsched::core
