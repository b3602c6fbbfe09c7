#include "testbed/testbed.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/load.hpp"
#include "core/reservation.hpp"
#include "fault/membership.hpp"
#include "obs/log.hpp"
#include "testbed/calibrate.hpp"
#include "util/rng.hpp"

namespace wsched::testbed {
namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using DoubleSec = std::chrono::duration<double>;

/// Stage a job reaches when one of its timers fires.
enum class Stage : std::uint8_t { kFresh, kDiskSlice };

struct TbCycle {
  double cpu = 0.0;  // compressed seconds
  double io = 0.0;
};

struct TbJob {
  std::uint64_t id = 0;
  trace::TraceRecord request;     // original (uncompressed) record
  int receiver = 0;               // front end that accepted it
  double demand_c = 0.0;          // compressed total demand, seconds
  std::vector<TbCycle> cycles;
  std::size_t cycle = 0;
  double cpu_left = 0.0;
  double io_left = 0.0;
  TimePoint arrival;              // at the cluster front end
  TimePoint ready_at;             // after any remote dispatch latency
  Stage stage = Stage::kFresh;

  bool load_cycle() {
    if (cycle >= cycles.size()) return false;
    cpu_left = cycles[cycle].cpu;
    io_left = cycles[cycle].io;
    return true;
  }
};

struct TimerEntry {
  TimePoint when;
  TbJob* job;
  bool operator>(const TimerEntry& other) const { return when > other.when; }
};

/// Per-node shared state; the node thread and the replayer both touch it.
struct NodeState {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<TbJob*> incoming;
  std::deque<TbJob*> runnable;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers;
  /// Round-robin disk ring, mirroring sim::DiskScheduler: one slice in
  /// flight at a time, jobs with more I/O rotate to the back.
  std::deque<TbJob*> disk_ring;
  TbJob* disk_active = nullptr;
  double disk_slice_len = 0.0;  ///< seconds of the in-flight slice
  bool stop = false;

  // Busy accounting (nanoseconds), read by the monitor thread.
  std::atomic<std::int64_t> cpu_busy_ns{0};
  std::atomic<std::int64_t> disk_busy_ns{0};
};

struct SharedState {
  std::mutex route_mu;  ///< guards load infos + reservation + dispatcher rng
  core::LoadVec load;
  /// Per-receiver dispatch knowledge, as in core::ClusterSim.
  std::unique_ptr<core::DispatchFeedback> feedback;
  std::unique_ptr<core::ReservationController> reservation;

  std::mutex metrics_mu;
  std::unique_ptr<core::MetricsCollector> metrics;
  TimePoint epoch;

  std::atomic<std::uint64_t> remaining{0};
  std::mutex done_mu;
  std::condition_variable done_cv;

  std::atomic<bool> monitor_stop{false};
};

Time ns_since(TimePoint epoch, TimePoint t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

std::vector<TbCycle> plan_cycles(double demand_c, double w, double fork_c,
                                 bool dynamic) {
  const double cpu_total = demand_c * w + (dynamic ? fork_c : 0.0);
  const double io_total = demand_c * (1.0 - w);
  constexpr double kIoChunk = 0.008;  // ~4 page accesses, as in the sim
  std::size_t cycles = 1;
  if (io_total > 0)
    cycles = std::max<std::size_t>(
        1, static_cast<std::size_t>(io_total / kIoChunk + 0.5));
  std::vector<TbCycle> plan(cycles);
  for (auto& c : plan) {
    c.cpu = cpu_total / static_cast<double>(cycles);
    c.io = io_total / static_cast<double>(cycles);
  }
  return plan;
}

class NodeWorker {
 public:
  NodeWorker(NodeState& state, SharedState& shared,
             const SpinCalibration& spin, double quantum_c, double duty,
             double disk_slice_c)
      : state_(state),
        shared_(shared),
        spin_(spin),
        quantum_c_(quantum_c),
        duty_(duty),
        disk_slice_c_(disk_slice_c) {}

  void operator()() {
    std::unique_lock lock(state_.mu);
    for (;;) {
      const TimePoint now = Clock::now();
      pop_timers(now);
      drain_incoming(now);

      if (state_.runnable.empty()) {
        if (state_.stop && state_.timers.empty() &&
            state_.incoming.empty())
          return;
        if (!state_.timers.empty()) {
          state_.cv.wait_until(lock, state_.timers.top().when);
        } else {
          state_.cv.wait_for(lock, std::chrono::milliseconds(5));
        }
        continue;
      }

      TbJob* job = state_.runnable.front();
      state_.runnable.pop_front();
      const double slice = std::min(quantum_c_, job->cpu_left);
      lock.unlock();
      // Real CPU work for the duty fraction; the virtual node stays "busy"
      // on the wall clock for the full slice either way.
      const TimePoint slice_end =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             DoubleSec(slice));
      spin_.spin_for(slice * duty_);
      if (duty_ < 1.0) std::this_thread::sleep_until(slice_end);
      state_.cpu_busy_ns.fetch_add(
          static_cast<std::int64_t>(slice * 1e9),
          std::memory_order_relaxed);
      lock.lock();
      job->cpu_left -= slice;
      if (job->cpu_left > 1e-9) {
        state_.runnable.push_back(job);  // round-robin
      } else if (job->io_left > 1e-9) {
        begin_io(job);
      } else {
        advance(job);
      }
    }
  }

 private:
  // All helpers run with state_.mu held.

  void pop_timers(TimePoint now) {
    while (!state_.timers.empty() && state_.timers.top().when <= now) {
      TbJob* job = state_.timers.top().job;
      state_.timers.pop();
      if (job->stage == Stage::kFresh) {
        start_job(job);
      } else {
        finish_disk_slice(job);
      }
    }
  }

  /// One round-robin disk slice completed for `job`.
  void finish_disk_slice(TbJob* job) {
    const double served = std::min(job->io_left, disk_slice_c_);
    job->io_left -= served;
    state_.disk_busy_ns.fetch_add(
        static_cast<std::int64_t>(served * 1e9),
        std::memory_order_relaxed);
    state_.disk_active = nullptr;
    if (job->io_left > 1e-9) {
      state_.disk_ring.push_back(job);  // rotate to the back
    } else {
      advance(job);
    }
    start_next_disk_slice();
  }

  void start_next_disk_slice() {
    if (state_.disk_active != nullptr || state_.disk_ring.empty()) return;
    TbJob* job = state_.disk_ring.front();
    state_.disk_ring.pop_front();
    state_.disk_active = job;
    const double slice = std::min(job->io_left, disk_slice_c_);
    state_.disk_slice_len = slice;
    job->stage = Stage::kDiskSlice;
    state_.timers.push(TimerEntry{
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           DoubleSec(slice)),
        job});
  }

  void drain_incoming(TimePoint now) {
    while (!state_.incoming.empty()) {
      TbJob* job = state_.incoming.front();
      state_.incoming.pop_front();
      if (job->ready_at <= now) {
        start_job(job);
      } else {
        state_.timers.push(TimerEntry{job->ready_at, job});
      }
    }
  }

  void start_job(TbJob* job) {
    job->load_cycle();
    route(job);
  }

  void route(TbJob* job) {
    while (true) {
      if (job->cpu_left > 1e-9) {
        state_.runnable.push_back(job);
        return;
      }
      if (job->io_left > 1e-9) {
        begin_io(job);
        return;
      }
      ++job->cycle;
      if (!job->load_cycle()) {
        complete(job);
        return;
      }
    }
  }

  void advance(TbJob* job) {
    ++job->cycle;
    if (!job->load_cycle()) {
      complete(job);
      return;
    }
    route(job);
  }

  /// Joins the round-robin disk ring (slices timed on the wall clock).
  void begin_io(TbJob* job) {
    state_.disk_ring.push_back(job);
    start_next_disk_slice();
  }

  void complete(TbJob* job) {
    const TimePoint now = Clock::now();
    {
      std::lock_guard metrics_lock(shared_.metrics_mu);
      sim::Job sim_job;
      sim_job.id = job->id;
      sim_job.request = job->request;
      // Express times on the compressed clock so stretch = response/demand
      // is compression-invariant.
      sim_job.request.service_demand =
          from_seconds(job->demand_c);
      sim_job.cluster_arrival = ns_since(shared_.epoch, job->arrival);
      shared_.metrics->record(sim_job, ns_since(shared_.epoch, now));
    }
    {
      std::lock_guard route_lock(shared_.route_mu);
      if (shared_.reservation)
        shared_.reservation->record_completion(
            job->request.is_dynamic(),
            ns_since(job->arrival, now));
      if (job->request.is_dynamic())
        shared_.feedback->note_dynamic_demand(
            static_cast<std::size_t>(job->receiver),
            from_seconds(job->demand_c));
    }
    delete job;
    if (shared_.remaining.fetch_sub(1) == 1) {
      std::lock_guard done_lock(shared_.done_mu);
      shared_.done_cv.notify_all();
    }
  }

  NodeState& state_;
  SharedState& shared_;
  const SpinCalibration& spin_;
  double quantum_c_;
  double duty_;
  double disk_slice_c_;
};

}  // namespace

TestbedResult run_testbed(const TestbedConfig& config,
                          core::SchedulerKind kind,
                          const trace::Trace& trace) {
  if (config.p < 1) throw std::invalid_argument("testbed: p must be >= 1");
  if (config.m < 1 || config.m > config.p)
    throw std::invalid_argument("testbed: need 1 <= m <= p");
  if (config.time_compression <= 0)
    throw std::invalid_argument("testbed: compression must be > 0");
  TestbedResult result;
  if (trace.records.empty()) return result;

  const double comp = config.time_compression;
  const double quantum_c = config.quantum_s / comp;
  const double fork_c = config.fork_s / comp;
  const double latency_c = config.remote_latency_s / comp;

  const SpinCalibration& spin = SpinCalibration::shared();
  obs::logf(obs::LogLevel::kInfo, "testbed",
            "replaying %zu records on p=%d m=%d (compression %.0fx)",
            trace.records.size(), config.p, config.m, comp);

  SharedState shared;
  shared.load.assign(static_cast<std::size_t>(config.p), core::LoadInfo{});
  core::ReservationConfig res_cfg;
  res_cfg.p = config.p;
  res_cfg.m = config.m;
  res_cfg.initial_r = config.initial_r;
  res_cfg.initial_a = config.initial_a;
  shared.reservation =
      std::make_unique<core::ReservationController>(res_cfg);
  // Mean dynamic demand prior: infer it from the trace itself (compressed).
  double dyn_demand_sum = 0.0;
  std::size_t dyn_count = 0;
  for (const auto& rec : trace.records)
    if (rec.is_dynamic()) {
      dyn_demand_sum += to_seconds(rec.service_demand) / comp;
      ++dyn_count;
    }
  shared.feedback = std::make_unique<core::DispatchFeedback>(
      static_cast<std::size_t>(config.p), static_cast<std::size_t>(config.p),
      from_seconds(config.sample_period_s / comp),
      dyn_count ? dyn_demand_sum / static_cast<double>(dyn_count) : 0.03);
  const double span_c = to_seconds(trace.span()) / comp;
  shared.metrics = std::make_unique<core::MetricsCollector>(
      from_seconds(config.warmup_fraction * span_c),
      from_seconds(fork_c));
  shared.remaining.store(trace.records.size());

  std::vector<std::unique_ptr<NodeState>> nodes;
  std::vector<std::thread> threads;
  for (int i = 0; i < config.p; ++i)
    nodes.push_back(std::make_unique<NodeState>());

  const TimePoint start = Clock::now() + std::chrono::milliseconds(20);
  shared.epoch = start;

  for (int i = 0; i < config.p; ++i)
    threads.emplace_back(
        NodeWorker(*nodes[static_cast<std::size_t>(i)], shared, spin,
                   quantum_c, config.cpu_duty_cycle,
                   config.io_page_s / comp));

  // Monitor thread: refreshes LoadInfo and theta'_2 periodically.
  std::thread monitor([&] {
    std::vector<std::int64_t> last_cpu(nodes.size(), 0);
    std::vector<std::int64_t> last_disk(nodes.size(), 0);
    const auto period = std::chrono::duration_cast<Clock::duration>(
        DoubleSec(config.sample_period_s / comp));
    TimePoint last = Clock::now();
    while (!shared.monitor_stop.load()) {
      std::this_thread::sleep_for(period);
      const TimePoint now = Clock::now();
      const double window = DoubleSec(now - last).count();
      if (window <= 0) continue;
      std::lock_guard lock(shared.route_mu);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const std::int64_t cpu = nodes[i]->cpu_busy_ns.load();
        const std::int64_t disk = nodes[i]->disk_busy_ns.load();
        const double cpu_ratio =
            1.0 - static_cast<double>(cpu - last_cpu[i]) / (window * 1e9);
        const double disk_ratio =
            1.0 - static_cast<double>(disk - last_disk[i]) / (window * 1e9);
        shared.load[i].cpu_idle_ratio = std::clamp(cpu_ratio, 0.01, 1.0);
        shared.load[i].disk_avail_ratio = std::clamp(disk_ratio, 0.01, 1.0);
        last_cpu[i] = cpu;
        last_disk[i] = disk;
      }
      shared.reservation->update();
      shared.feedback->on_sample(shared.load);
      last = now;
    }
  });

  // Replayer: the cluster front end.
  {
    auto dispatcher = core::make_dispatcher(kind, std::max(1, config.m));
    Rng rng(config.seed, 0x7e57);
    const fault::Membership membership(config.p, config.m,
                                       /*failover=*/false);
    core::ClusterView view;
    view.load = &shared.load;
    view.feedback = shared.feedback.get();
    view.p = config.p;
    view.membership = &membership;
    view.reservation = shared.reservation.get();
    view.rng = &rng;

    std::uint64_t next_id = 1;
    const Time first_arrival = trace.records.front().arrival;
    for (const auto& rec : trace.records) {
      const double offset_c =
          to_seconds(rec.arrival - first_arrival) / comp;
      const TimePoint when =
          start + std::chrono::duration_cast<Clock::duration>(
                      DoubleSec(offset_c));
      std::this_thread::sleep_until(when);

      core::Decision decision;
      {
        std::lock_guard lock(shared.route_mu);
        decision = dispatcher->route(rec, view);
        if (decision.rsrc_w >= 0.0 && rec.is_dynamic())
          shared.feedback->on_dispatch(
              static_cast<std::size_t>(decision.receiver),
              static_cast<std::size_t>(decision.node), decision.rsrc_w);
      }
      auto* job = new TbJob;
      job->id = next_id++;
      job->receiver = decision.receiver;
      job->request = rec;
      job->demand_c = to_seconds(rec.service_demand) / comp;
      job->cycles = plan_cycles(job->demand_c, rec.cpu_fraction, fork_c,
                                rec.is_dynamic());
      job->arrival = Clock::now();
      job->ready_at = job->arrival;
      if (decision.remote && rec.is_dynamic())
        job->ready_at += std::chrono::duration_cast<Clock::duration>(
            DoubleSec(latency_c));
      NodeState& node = *nodes[static_cast<std::size_t>(decision.node)];
      {
        std::lock_guard lock(node.mu);
        node.incoming.push_back(job);
      }
      node.cv.notify_one();
    }
  }

  // Wait for completion, then shut everything down.
  {
    std::unique_lock lock(shared.done_mu);
    shared.done_cv.wait(lock,
                        [&] { return shared.remaining.load() == 0; });
  }
  for (auto& node : nodes) {
    std::lock_guard lock(node->mu);
    node->stop = true;
    node->cv.notify_all();
  }
  for (auto& thread : threads) thread.join();
  shared.monitor_stop.store(true);
  monitor.join();

  result.metrics = shared.metrics->summary();
  result.completed = trace.records.size();
  result.wall_seconds = DoubleSec(Clock::now() - start).count();
  obs::logf(obs::LogLevel::kInfo, "testbed",
            "replay finished: %llu completions in %.2fs wall",
            static_cast<unsigned long long>(result.completed),
            result.wall_seconds);
  return result;
}

}  // namespace wsched::testbed
