#include "overload/overload.hpp"

#include <algorithm>
#include <bit>

#include "obs/log.hpp"

namespace wsched::overload {

OverloadController::OverloadController(sim::Engine& engine,
                                       std::vector<sim::Node*> nodes,
                                       const OverloadConfig& config,
                                       std::uint64_t seed)
    : engine_(engine),
      nodes_(std::move(nodes)),
      config_(config),
      admission_(config.admission),
      saturation_(config.saturation),
      breakers_(static_cast<int>(nodes_.size()), config.breaker),
      breakers_on_(config.breaker.enabled),
      admission_rng_(seed, 0xAD7115),
      retry_rng_(seed, 0xB0FF) {}

OverloadController::TrackedJob* OverloadController::LiveJobs::find(
    std::uint64_t id) {
  if (count_ == 0) return nullptr;
  Entry& entry = entries_[slot_of(id)];
  return entry.id == id ? &entry.job : nullptr;
}

std::size_t OverloadController::LiveJobs::slot_of(std::uint64_t id) const {
  std::size_t i = home(id);
  while (entries_[i].id != id && entries_[i].id != 0) i = (i + 1) & mask_;
  return i;
}

void OverloadController::LiveJobs::insert(std::uint64_t id, TrackedJob job) {
  if (2 * (count_ + 1) > entries_.size()) grow();
  Entry& entry = entries_[slot_of(id)];
  if (entry.id == id) return;
  entry = Entry{id, job};
  ++count_;
}

void OverloadController::LiveJobs::erase(std::uint64_t id) {
  if (count_ == 0) return;
  std::size_t hole = slot_of(id);
  if (entries_[hole].id != id) return;
  // Backward shift: move each later entry of the probe run back into the
  // hole, unless its home slot lies after the hole (it would then become
  // unreachable from home).
  for (std::size_t j = (hole + 1) & mask_; entries_[j].id != 0;
       j = (j + 1) & mask_) {
    const std::size_t from_home = (j - home(entries_[j].id)) & mask_;
    if (from_home >= ((j - hole) & mask_)) {
      entries_[hole] = entries_[j];
      hole = j;
    }
  }
  entries_[hole].id = 0;
  --count_;
}

void OverloadController::LiveJobs::grow() {
  std::vector<Entry> old = std::move(entries_);
  const std::size_t size = old.empty() ? 64 : 2 * old.size();
  entries_.assign(size, Entry{});
  mask_ = size - 1;
  shift_ = 64 - std::countr_zero(size);
  for (const Entry& entry : old)
    if (entry.id != 0) entries_[slot_of(entry.id)] = entry;
}

void OverloadController::tick_fired(void* ctx) {
  static_cast<OverloadController*>(ctx)->on_tick();
}

void OverloadController::deadline_fired(void* ctx) {
  auto* timer = static_cast<DeadlineTimer*>(ctx);
  OverloadController& self = *timer->self;
  const std::uint64_t id = timer->id;
  self.deadline_timers_.release(timer);
  self.on_deadline(id);
}

void OverloadController::start() {
  engine_.schedule_call_after(from_seconds(config_.signal_period_s),
                              &tick_fired, this);
}

void OverloadController::on_tick() {
  const Time now = engine_.now();
  double queue_sum = 0.0;
  int alive = 0;
  Time cpu_busy = 0;
  for (sim::Node* node : nodes_) {
    const double depth =
        static_cast<double>(node->run_queue_length() +
                            node->disk_queue_length());
    cpu_busy += node->cpu_busy_until(now);
    if (node->alive()) {
      queue_sum += depth;
      ++alive;
    }
    if (breakers_on_) breakers_.node(node->id()).note_queue_depth(depth, now);
  }
  const double mean_queue = alive > 0 ? queue_sum / alive : 0.0;
  const double dt = to_seconds(now - last_tick_);
  const double util =
      dt > 0.0 ? std::clamp(to_seconds(cpu_busy - last_cpu_busy_) /
                                (static_cast<double>(nodes_.size()) * dt),
                            0.0, 1.0)
               : 0.0;
  last_tick_ = now;
  last_cpu_busy_ = cpu_busy;

  admission_.on_signal(mean_queue, util);
  if (breakers_on_) sync_breaker_trips();
  if (config_.saturation.enabled) {
    const int change = saturation_.on_signal(mean_queue, now);
    if (change != 0) {
      const bool entered = change > 0;
      if (hooks_.trace != nullptr)
        hooks_.trace->instant(obs::Category::kDispatch,
                              entered ? "degraded-enter" : "degraded-exit",
                              hooks_.cluster_pid, obs::kLaneOverload, now,
                              {{"queue_signal", saturation_.signal()}});
      obs::logf(obs::LogLevel::kInfo, "overload",
                "t=%.3fs %s degraded static-only mode (queue signal %.1f)",
                to_seconds(now), entered ? "entering" : "leaving",
                saturation_.signal());
      if (on_degraded_) on_degraded_(entered);
    }
  }
  if (hooks_.trace != nullptr) {
    hooks_.trace->counter(obs::Category::kDispatch, "overload.queue_signal",
                          hooks_.cluster_pid, now, mean_queue);
    hooks_.trace->counter(obs::Category::kDispatch, "overload.degraded",
                          hooks_.cluster_pid, now,
                          saturation_.degraded() ? 1.0 : 0.0);
  }
  engine_.schedule_call_after(from_seconds(config_.signal_period_s),
                              &tick_fired, this);
}

const char* OverloadController::shed_reason(bool dynamic) {
  const double p = admission_.shed_probability(dynamic);
  if (p <= 0.0) return nullptr;
  // Draw only for a fractional probability: an inert policy (p always 0)
  // and a hard gate (p = 1) must consume no randomness.
  if (p < 1.0 && !(admission_rng_.uniform() < p)) return nullptr;
  switch (config_.admission.policy) {
    case AdmissionPolicy::kQueueDepth: return "shed-queue";
    case AdmissionPolicy::kUtilization: return "shed-util";
    case AdmissionPolicy::kStretchTarget: return "shed-stretch";
    case AdmissionPolicy::kNone: break;
  }
  return nullptr;
}

Time OverloadController::deadline_for(bool dynamic) const {
  const double seconds =
      dynamic ? config_.deadline.dynamic_s : config_.deadline.static_s;
  return seconds > 0.0 ? from_seconds(seconds) : 0;
}

void OverloadController::arm_deadline(const sim::Job& job) {
  const Time deadline = deadline_for(job.request.is_dynamic());
  if (deadline <= 0) return;
  live_.insert(job.id, TrackedJob{-1, false, job.request.is_dynamic()});
  DeadlineTimer* timer = deadline_timers_.acquire();
  *timer = DeadlineTimer{this, job.id};
  engine_.schedule_call(job.cluster_arrival + deadline, &deadline_fired,
                        timer);
}

void OverloadController::on_deadline(std::uint64_t id) {
  TrackedJob* tracked = live_.find(id);
  if (tracked == nullptr) return;  // already settled
  bool freed = false;
  if (tracked->node >= 0) {
    sim::Node* node = nodes_[static_cast<std::size_t>(tracked->node)];
    if (node->alive()) freed = node->abort(id);
  }
  ++abandoned_;
  if (hooks_.trace != nullptr)
    hooks_.trace->instant(obs::Category::kDispatch, "abandon",
                          hooks_.cluster_pid, obs::kLaneOverload,
                          engine_.now(),
                          {{"job", id}, {"dynamic", tracked->dynamic ? 1 : 0}});
  obs::logf(obs::LogLevel::kDebug, "overload",
            "t=%.3fs job %llu abandoned past its deadline",
            to_seconds(engine_.now()),
            static_cast<unsigned long long>(id));
  if (freed) {
    live_.erase(id);
  } else {
    // In flight (dispatch hop or retry backoff): the pending event that
    // holds the job observes the flag via consume_abandoned and drops it.
    tracked->abandoned = true;
  }
  if (on_abandon_ != nullptr) on_abandon_(abandon_ctx_, id);
}

void OverloadController::note_on_node(std::uint64_t id, int node) {
  if (!config_.deadline.any()) return;
  if (TrackedJob* tracked = live_.find(id)) tracked->node = node;
}

void OverloadController::note_waiting(std::uint64_t id) {
  if (!config_.deadline.any()) return;
  if (TrackedJob* tracked = live_.find(id)) tracked->node = -1;
}

bool OverloadController::consume_abandoned(std::uint64_t id) {
  if (!config_.deadline.any()) return false;
  const TrackedJob* tracked = live_.find(id);
  if (tracked == nullptr || !tracked->abandoned) return false;
  live_.erase(id);
  return true;
}

void OverloadController::forget(std::uint64_t id) {
  if (!config_.deadline.any()) return;
  live_.erase(id);
}

bool OverloadController::on_complete(const sim::Job& job, int node,
                                     Time completion) {
  if (breakers_on_) breakers_.node(node).note_success();
  if (config_.admission.policy == AdmissionPolicy::kStretchTarget &&
      !job.request.is_dynamic()) {
    const Time response = std::max<Time>(1, completion - job.cluster_arrival);
    const Time demand = std::max<Time>(1, job.request.service_demand);
    admission_.on_static_completion(static_cast<double>(response) /
                                    static_cast<double>(demand));
  }
  if (!config_.deadline.any()) return true;
  const TrackedJob* tracked = live_.find(job.id);
  if (tracked == nullptr) return true;  // class without a deadline
  const bool settled = tracked->abandoned;
  live_.erase(job.id);
  // A completion racing an already-counted abandonment is a zombie; the
  // caller must not account it a second time.
  return !settled;
}

void OverloadController::count_retry(std::uint64_t id) {
  ++retries_;
  if (hooks_.trace != nullptr)
    hooks_.trace->instant(obs::Category::kDispatch, "retry",
                          hooks_.cluster_pid, obs::kLaneOverload,
                          engine_.now(), {{"job", id}});
}

void OverloadController::count_shed(std::uint64_t id) {
  forget(id);
  ++shed_;
  if (hooks_.trace != nullptr)
    hooks_.trace->instant(obs::Category::kDispatch, "shed",
                          hooks_.cluster_pid, obs::kLaneOverload,
                          engine_.now(), {{"job", id}});
}

void OverloadController::note_dispatch(int node) {
  if (breakers_on_) breakers_.node(node).note_dispatch();
}

void OverloadController::note_dispatch_failure(int node) {
  if (!breakers_on_) return;
  breakers_.node(node).note_failure(engine_.now());
  sync_breaker_trips();
}

void OverloadController::sync_breaker_trips() {
  const std::uint64_t trips = breakers_.trips();
  if (trips == last_trips_) return;
  if (hooks_.trace != nullptr)
    hooks_.trace->instant(obs::Category::kDispatch, "breaker-open",
                          hooks_.cluster_pid, obs::kLaneOverload,
                          engine_.now(),
                          {{"tripped", breakers_.tripped_count()}});
  obs::logf(obs::LogLevel::kInfo, "overload",
            "t=%.3fs circuit breaker tripped (%d node(s) not closed)",
            to_seconds(engine_.now()), breakers_.tripped_count());
  last_trips_ = trips;
}

}  // namespace wsched::overload
