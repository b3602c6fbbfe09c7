#include "sim/node.hpp"

#include <algorithm>
#include <cassert>

namespace wsched::sim {

namespace {

/// Trace async-event name for one request. Hedge copies get their own
/// names so a copy's begin/end never pairs with the primary's events
/// (both carry the same request id).
const char* req_name(const Job& job) {
  if (job.hedge) return job.request.is_dynamic() ? "cgi-hedge" : "file-hedge";
  return job.request.is_dynamic() ? "cgi" : "file";
}

/// Wall time of `work` at `rate` (speed times degradation factor).
Time wall_time(Time work, double rate) {
  return static_cast<Time>(static_cast<double>(work) / rate + 0.5);
}

}  // namespace

void Node::SliceRun::begin(Time at, Time left, Time unit, double rate,
                           bool whole) {
  start = at;
  work = std::min(unit, left);
  slices = 1;
  end = at + wall_time(work, rate);
  if (!whole || left <= unit) return;
  wall = wall_time(unit, rate);
  // A unit of no wall time (a zero quantum or page) keeps one event per
  // slice; ended() divides by `wall`.
  if (wall <= 0) return;
  slices = static_cast<std::uint64_t>((left + unit - 1) / unit);
  const Time full = static_cast<Time>(slices - 1);
  end = at + full * wall + wall_time(left - full * unit, rate);
}

std::uint64_t Node::SliceRun::ended(Time t, bool at_t) const {
  if (slices <= 1) return 0;
  const Time since = at_t ? t - start : t - start - 1;
  if (since < 0) return 0;
  return std::min(slices - 1, static_cast<std::uint64_t>(since / wall));
}

bool Node::SliceRun::cut() {
  if (slices <= 1) return false;
  slices = 1;
  end = start + wall;  // the slice in progress is a full one
  return true;
}

Node::Node(Engine& engine, const OsParams& os, NodeParams params, int id)
    : engine_(engine),
      os_(os),
      params_(params),
      id_(id),
      cpu_sched_(os),
      disk_sched_(os),
      memory_(os) {}

Time Node::cpu_wall(Time work) const { return wall_time(work, cpu_rate()); }

Time Node::disk_wall(Time work) const { return wall_time(work, disk_rate()); }

Process* Node::acquire_process() {
  Process* proc = procs_.acquire();
  proc->cycle = 0;
  proc->cpu_left = 0;
  proc->io_left = 0;
  proc->state = ProcState::kReady;
  proc->p_cpu = 0;
  proc->granted_pages = 0;
  return proc;
}

void Node::submit(Job job) {
  assert(alive_);
  Process* proc = acquire_process();
  proc->job = std::move(job);
  proc->node_arrival = engine_.now();
  if (obs_.spans != nullptr && !proc->job.hedge)
    obs_.spans->begin_visit(proc->job.id, engine_.now(), id_);

  const trace::TraceRecord& req = proc->job.request;
  plan_bursts_into(req.service_demand, req.cpu_fraction, os_, proc->cycles);

  // "every CGI request requires the creation of a new process" — fork cost
  // is CPU work at the front of the first burst.
  if (req.is_dynamic()) {
    proc->cycles.front().cpu += os_.fork_overhead;
    ++counts_.forks;
  }
  if (obs_.trace != nullptr) {
    obs_.trace->async_begin(
        obs::Category::kRequest, req_name(proc->job), id_,
        proc->job.id, engine_.now(),
        {{"job", proc->job.id},
         {"demand_s", to_seconds(req.service_demand)},
         {"remote", proc->job.remote ? 1 : 0}});
  }

  // Memory: grant the working set; shortfall becomes paging I/O spread
  // evenly over the cycles.
  const MemoryManager::Allocation alloc =
      memory_.allocate(req.mem_pages, req.service_demand);
  proc->granted_pages = alloc.granted;
  if (alloc.paging_io > 0 && obs_.spans != nullptr && !proc->job.hedge)
    obs_.spans->note(proc->job.id, "paging", engine_.now(), alloc.paging_io);
  if (alloc.paging_io > 0) {
    const Time per_cycle =
        alloc.paging_io / static_cast<Time>(proc->cycles.size());
    for (auto& cycle : proc->cycles) cycle.io += per_cycle;
    proc->cycles.back().io +=
        alloc.paging_io - per_cycle * static_cast<Time>(proc->cycles.size());
  }

  proc->live_index = live_.size();
  live_.push_back(proc);
  ensure_tick();

  proc->load_cycle();
  route(proc);
}

void Node::route(Process* proc) {
  while (true) {
    if (proc->cpu_left > 0) {
      enter_ready(proc);
      return;
    }
    if (proc->io_left > 0) {
      enter_disk(proc);
      return;
    }
    if (!proc->advance_cycle()) {
      complete(proc);
      return;
    }
  }
}

void Node::enter_ready(Process* proc) {
  if (obs_.spans != nullptr && !proc->job.hedge)
    obs_.spans->cpu_wait(proc->job.id, engine_.now());
  cpu_sched_.enqueue(proc);
  if (running_ != nullptr) {
    settle_cpu(engine_.now());
    if (cpu_sched_.preempts(*proc, *running_))
      preempt_running();
    else
      cut_cpu();
  }
  try_dispatch();
}

void Node::preempt_running() {
  Process* proc = running_;
  const Time now = engine_.now();
  // enter_ready settled the run, so the slice in progress is the one cut.
  // Work actually performed this slice; the slice may be cut during the
  // context-switch window, in which case no work has happened yet.
  Time wall_used = std::max<Time>(0, now - cpu_run_.start);
  Time work_used =
      std::min(cpu_run_.work, static_cast<Time>(
                                static_cast<double>(wall_used) *
                                    params_.cpu_speed * cpu_degr_ +
                                0.5));
  wall_used = cpu_wall(work_used);
  proc->p_cpu += work_used;
  proc->cpu_left -= std::min(proc->cpu_left, work_used);
  cpu_busy_ += wall_used;
  total_cpu_service_ += work_used;
  ++counts_.preemptions;
  if (obs_.trace != nullptr && wall_used > 0)
    obs_.trace->span(obs::Category::kCpu, "cpu-slice", id_, obs::kLaneCpu,
                     cpu_run_.start, wall_used,
                     {{"job", proc->job.id}, {"preempted", 1}});
  running_ = nullptr;
  ++cpu_epoch_;  // cancel the scheduled slice-end event
  if (obs_.spans != nullptr && !proc->job.hedge)
    obs_.spans->cpu_wait(proc->job.id, now);
  cpu_sched_.enqueue(proc);
}

void Node::try_dispatch() {
  if (running_ != nullptr || cpu_sched_.empty()) return;
  Process* proc = cpu_sched_.pop_best();
  proc->state = ProcState::kRunning;
  running_ = proc;

  const Time cs = (proc == last_on_cpu_) ? 0 : os_.context_switch;
  cpu_busy_ += cs;
  total_context_switch_ += cs;
  if (cs > 0) ++counts_.context_switches;
  last_on_cpu_ = proc;

  // Alone in the ready queue, the process runs its whole CPU phase unless
  // another process arrives (enter_ready cuts the run).
  cpu_run_.begin(engine_.now() + cs, proc->cpu_left, os_.cpu_quantum,
                 cpu_rate(), cpu_sched_.empty() && coalesce());
  // The CPU phase is marked at the slice start — the switch itself
  // charges to cpu_wait. A preemption or abort landing inside the switch
  // window clamps against the future mark (see SpanRecorder).
  if (obs_.spans != nullptr && !proc->job.hedge)
    obs_.spans->cpu_run(proc->job.id, cpu_run_.start);
  engine_.schedule_cpu_slice_end(cpu_run_.end, this, ++cpu_epoch_);
}

void Node::settle_cpu(Time now) {
  if (running_ == nullptr) return;
  const std::uint64_t n = cpu_run_.ended(now, false);
  if (n == 0) return;
  const Time work = cpu_run_.work * static_cast<Time>(n);
  running_->p_cpu += work;
  running_->cpu_left -= work;
  cpu_busy_ += cpu_run_.wall * static_cast<Time>(n);
  total_cpu_service_ += work;
  counts_.cpu_slices += n;
  cpu_run_.start += cpu_run_.wall * static_cast<Time>(n);
  cpu_run_.slices -= n;
  cpu_run_.work = std::min(os_.cpu_quantum, running_->cpu_left);
}

void Node::cut_cpu() {
  if (running_ == nullptr || !cpu_run_.cut()) return;
  engine_.schedule_cpu_slice_end(cpu_run_.end, this, ++cpu_epoch_);
}

void Node::on_cpu_slice_end(std::uint64_t token) {
  if (token != cpu_epoch_) return;  // preempted or cut; stale event
  settle_cpu(engine_.now());
  Process* proc = running_;
  assert(proc != nullptr);
  const Time work = cpu_run_.work;
  proc->p_cpu += work;
  proc->cpu_left -= std::min(proc->cpu_left, work);
  cpu_busy_ += cpu_wall(work);
  total_cpu_service_ += work;
  ++counts_.cpu_slices;
  if (obs_.trace != nullptr)
    obs_.trace->span(obs::Category::kCpu, "cpu-slice", id_, obs::kLaneCpu,
                     cpu_run_.start, cpu_wall(work), {{"job", proc->job.id}});
  running_ = nullptr;
  ++cpu_epoch_;

  if (proc->cpu_left > 0) {
    // Quantum expiry: back of the (re-derived) priority level.
    if (obs_.spans != nullptr && !proc->job.hedge)
      obs_.spans->cpu_wait(proc->job.id, engine_.now());
    cpu_sched_.enqueue(proc);
  } else if (proc->io_left > 0) {
    enter_disk(proc);
  } else {
    finish_cycle(proc);
  }
  try_dispatch();
}

void Node::enter_disk(Process* proc) {
  if (obs_.spans != nullptr && !proc->job.hedge)
    obs_.spans->disk_wait(proc->job.id, engine_.now());
  disk_sched_.enqueue(proc);
  if (disk_active_ != nullptr) {
    settle_disk(engine_.now());
    cut_disk();
  }
  try_disk();
}

void Node::try_disk() {
  if (disk_active_ != nullptr || disk_sched_.empty()) return;
  Process* proc = disk_sched_.pop_next();
  proc->state = ProcState::kDiskActive;
  disk_active_ = proc;
  // Alone in the ring, the process runs its whole I/O phase unless another
  // process enqueues (enter_disk cuts the run).
  disk_run_.begin(engine_.now(), proc->io_left, os_.io_page_access,
                  disk_rate(), disk_sched_.empty() && coalesce());
  if (obs_.spans != nullptr && !proc->job.hedge)
    obs_.spans->disk_run(proc->job.id, disk_run_.start);
  engine_.schedule_disk_slice_end(disk_run_.end, this, disk_epoch_);
}

void Node::settle_disk(Time now) {
  if (disk_active_ == nullptr) return;
  const std::uint64_t n = disk_run_.ended(now, false);
  if (n == 0) return;
  const Time work = disk_run_.work * static_cast<Time>(n);
  disk_active_->io_left -= work;
  disk_busy_ += disk_run_.wall * static_cast<Time>(n);
  total_disk_service_ += work;
  counts_.disk_slices += n;
  disk_run_.start += disk_run_.wall * static_cast<Time>(n);
  disk_run_.slices -= n;
  disk_run_.work = disk_sched_.slice_for(*disk_active_);
}

void Node::cut_disk() {
  if (disk_active_ == nullptr || !disk_run_.cut()) return;
  engine_.schedule_disk_slice_end(disk_run_.end, this, ++disk_epoch_);
}

void Node::on_disk_slice_end(std::uint64_t token) {
  if (token != disk_epoch_) return;  // cut, aborted or crashed; stale event
  settle_disk(engine_.now());
  Process* proc = disk_active_;
  assert(proc != nullptr);
  const Time work = disk_run_.work;
  proc->io_left -= std::min(proc->io_left, work);
  disk_busy_ += disk_wall(work);
  total_disk_service_ += work;
  ++counts_.disk_slices;
  if (obs_.trace != nullptr)
    obs_.trace->span(obs::Category::kDisk, "disk-slice", id_,
                     obs::kLaneDisk, disk_run_.start, disk_wall(work),
                     {{"job", proc->job.id}});
  disk_active_ = nullptr;

  if (proc->io_left > 0) {
    if (obs_.spans != nullptr && !proc->job.hedge)
      obs_.spans->disk_wait(proc->job.id, engine_.now());
    disk_sched_.enqueue(proc);  // round-robin: back of the ring
  } else {
    finish_cycle(proc);
  }
  try_disk();
}

void Node::finish_cycle(Process* proc) {
  if (!proc->advance_cycle()) {
    complete(proc);
    return;
  }
  route(proc);
}

void Node::complete(Process* proc) {
  proc->state = ProcState::kDone;
  memory_.release(proc->granted_pages);
  ++completed_;
  const Job job = std::move(proc->job);

  // Remove from the live table (swap-with-last).
  const std::size_t idx = proc->live_index;
  assert(idx < live_.size() && live_[idx] == proc);
  if (last_on_cpu_ == proc) last_on_cpu_ = nullptr;
  if (idx + 1 != live_.size()) {
    live_[idx] = live_.back();
    live_[idx]->live_index = idx;
  }
  live_.pop_back();
  release_process(proc);

  if (obs_.trace != nullptr)
    obs_.trace->async_end(
        obs::Category::kRequest, req_name(job), id_, job.id,
        engine_.now(),
        {{"response_s", to_seconds(engine_.now() - job.cluster_arrival)}});
  if (on_complete_) on_complete_(job, engine_.now());
}

void Node::ensure_tick() {
  if (tick_active_) return;
  tick_active_ = true;
  engine_.schedule_node_tick(engine_.now() + os_.priority_update_period,
                             this);
}

void Node::on_tick() {
  if (live_.empty()) {
    tick_active_ = false;
    return;
  }
  // The decay divides, so the quanta that ended before the tick are
  // credited first, as their own slice ends would have been.
  settle_cpu(engine_.now());
  const int load = static_cast<int>(cpu_sched_.size()) +
                   (running_ != nullptr ? 1 : 0);
  for (Process* proc : live_)
    proc->p_cpu = cpu_sched_.decayed(proc->p_cpu, load);
  cpu_sched_.rebucket_all();
  engine_.schedule_node_tick(engine_.now() + os_.priority_update_period,
                             this);
}

bool Node::abort(std::uint64_t job_id) {
  assert(alive_);
  return remove_live(job_id, "abandoned");
}

bool Node::cancel(std::uint64_t job_id) {
  // The hedger cancels against a possibly-stale location; a node that
  // crashed in between already dropped the process.
  if (!alive_) return false;
  return remove_live(job_id, "cancelled");
}

bool Node::remove_live(std::uint64_t job_id, const char* note) {
  Process* proc = nullptr;
  for (Process* live : live_) {
    if (live->job.id == job_id) {
      proc = live;
      break;
    }
  }
  if (proc == nullptr) return false;

  const Time now = engine_.now();
  settle_cpu(now);
  settle_disk(now);
  bool was_running = false;
  bool was_disk_active = false;
  switch (proc->state) {
    case ProcState::kReady: {
      const bool removed = cpu_sched_.remove(proc);
      assert(removed);
      (void)removed;
      break;
    }
    case ProcState::kRunning: {
      assert(running_ == proc);
      // Same pro-rata slice charge as preemption, so busy accounting stays
      // monotone.
      const Time wall_used = std::max<Time>(0, now - cpu_run_.start);
      const Time work_used = std::min(
          cpu_run_.work,
          static_cast<Time>(static_cast<double>(wall_used) *
                                params_.cpu_speed * cpu_degr_ +
                            0.5));
      cpu_busy_ += cpu_wall(work_used);
      total_cpu_service_ += work_used;
      if (obs_.trace != nullptr && work_used > 0)
        obs_.trace->span(obs::Category::kCpu, "cpu-slice", id_,
                         obs::kLaneCpu, cpu_run_.start, cpu_wall(work_used),
                         {{"job", job_id}, {"aborted", 1}});
      running_ = nullptr;
      ++cpu_epoch_;  // cancel the pending CPU slice-end event
      was_running = true;
      break;
    }
    case ProcState::kDiskQueued: {
      const bool removed = disk_sched_.remove(proc);
      assert(removed);
      (void)removed;
      break;
    }
    case ProcState::kDiskActive: {
      assert(disk_active_ == proc);
      const Time wall_used = std::max<Time>(0, now - disk_run_.start);
      const Time work_used = std::min(
          disk_run_.work,
          static_cast<Time>(static_cast<double>(wall_used) *
                                params_.disk_speed * disk_degr_ +
                            0.5));
      disk_busy_ += disk_wall(work_used);
      total_disk_service_ += work_used;
      disk_active_ = nullptr;
      ++disk_epoch_;  // cancel the pending disk slice-end event
      was_disk_active = true;
      break;
    }
    case ProcState::kDone:
      return false;  // completing this instant; nothing left to free
  }

  memory_.release(proc->granted_pages);
  if (obs_.trace != nullptr)
    obs_.trace->async_end(obs::Category::kRequest, req_name(proc->job),
                          id_, job_id, now, {{note, 1}});
  if (last_on_cpu_ == proc) last_on_cpu_ = nullptr;
  const std::size_t idx = proc->live_index;
  assert(idx < live_.size() && live_[idx] == proc);
  if (idx + 1 != live_.size()) {
    live_[idx] = live_.back();
    live_[idx]->live_index = idx;
  }
  live_.pop_back();
  release_process(proc);

  if (was_running) try_dispatch();
  if (was_disk_active) try_disk();
  return true;
}

std::vector<Job> Node::crash() {
  assert(alive_);
  alive_ = false;

  // Charge the partially-run slices up to the crash instant so the busy
  // counters stay monotone and the next load sample reflects reality.
  const Time now = engine_.now();
  settle_cpu(now);
  settle_disk(now);
  if (running_ != nullptr) {
    const Time wall_used = std::max<Time>(0, now - cpu_run_.start);
    const Time work_used = std::min(
        cpu_run_.work,
        static_cast<Time>(static_cast<double>(wall_used) *
                              params_.cpu_speed * cpu_degr_ +
                          0.5));
    cpu_busy_ += cpu_wall(work_used);
    total_cpu_service_ += work_used;
    if (obs_.trace != nullptr && work_used > 0)
      obs_.trace->span(obs::Category::kCpu, "cpu-slice", id_, obs::kLaneCpu,
                       cpu_run_.start, cpu_wall(work_used),
                       {{"job", running_->job.id}, {"crashed", 1}});
    running_ = nullptr;
  }
  ++cpu_epoch_;  // cancel the pending CPU slice-end event
  if (disk_active_ != nullptr) {
    const Time wall_used = std::max<Time>(0, now - disk_run_.start);
    const Time work_used = std::min(
        disk_run_.work,
        static_cast<Time>(static_cast<double>(wall_used) *
                              params_.disk_speed * disk_degr_ +
                          0.5));
    disk_busy_ += disk_wall(work_used);
    total_disk_service_ += work_used;
    disk_active_ = nullptr;
  }
  ++disk_epoch_;  // cancel the pending disk slice-end event
  cpu_sched_.clear();
  disk_sched_.clear();
  last_on_cpu_ = nullptr;

  std::vector<Job> dropped;
  dropped.reserve(live_.size());
  for (Process* proc : live_) {
    memory_.release(proc->granted_pages);
    if (obs_.trace != nullptr)
      obs_.trace->async_end(
          obs::Category::kRequest, req_name(proc->job), id_,
          proc->job.id, now, {{"dropped", 1}});
    dropped.push_back(std::move(proc->job));
    release_process(proc);
  }
  live_.clear();
  return dropped;
}

void Node::recover() {
  assert(!alive_);
  alive_ = true;
  // Queues and memory were reclaimed at crash time; the node restarts
  // cold. A still-pending priority tick self-cancels on an empty node.
}

std::vector<Job> Node::power_down() {
  powered_ = false;
  if (!alive_) return {};
  return crash();
}

void Node::power_up() {
  powered_ = true;
  if (!alive_) recover();
}

void Node::set_degradation(double cpu_factor, double disk_factor) {
  assert(cpu_factor > 0.0 && disk_factor > 0.0);
  // Runs were planned at the old speeds: each ends with its slice in
  // progress, which completes as planned.
  const Time now = engine_.now();
  settle_cpu(now);
  settle_disk(now);
  cut_cpu();
  cut_disk();
  cpu_degr_ = cpu_factor;
  disk_degr_ = disk_factor;
}

// While more than one slice is left, the run is busy from its slice in
// progress to its end. The last slice clamps to its wall time at the
// *current* speed, as a lone slice always has: after a speed change it
// may differ from the time its end event was planned at.
Time Node::cpu_busy_until(Time now) const {
  Time busy = cpu_busy_;
  if (running_ != nullptr) {
    const Time wall = cpu_run_.slices > 1 ? cpu_run_.end - cpu_run_.start
                                          : cpu_wall(cpu_run_.work);
    busy += std::clamp<Time>(now - cpu_run_.start, 0, wall);
  }
  return busy;
}

Time Node::disk_busy_until(Time now) const {
  Time busy = disk_busy_;
  if (disk_active_ != nullptr) {
    const Time wall = disk_run_.slices > 1 ? disk_run_.end - disk_run_.start
                                           : disk_wall(disk_run_.work);
    busy += std::clamp<Time>(now - disk_run_.start, 0, wall);
  }
  return busy;
}

NodeCounts Node::counts() const {
  NodeCounts counts = counts_;
  const Time now = engine_.now();
  if (running_ != nullptr) counts.cpu_slices += cpu_run_.ended(now, true);
  if (disk_active_ != nullptr)
    counts.disk_slices += disk_run_.ended(now, true);
  return counts;
}

Time Node::total_cpu_service() const {
  if (running_ == nullptr) return total_cpu_service_;
  const auto n = cpu_run_.ended(engine_.now(), true);
  return total_cpu_service_ + cpu_run_.work * static_cast<Time>(n);
}

Time Node::total_disk_service() const {
  if (disk_active_ == nullptr) return total_disk_service_;
  const auto n = disk_run_.ended(engine_.now(), true);
  return total_disk_service_ + disk_run_.work * static_cast<Time>(n);
}

}  // namespace wsched::sim
