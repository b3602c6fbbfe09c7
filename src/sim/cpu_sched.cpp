#include "sim/cpu_sched.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace wsched::sim {

CpuScheduler::CpuScheduler(const OsParams& os) : os_(&os) {
  if (os.priority_levels < 1 || os.priority_levels > 64)
    throw std::invalid_argument("priority_levels must be in [1, 64]");
  levels_.resize(static_cast<std::size_t>(os.priority_levels));
}

int CpuScheduler::level_of(const Process& proc) const {
  const Time gran = std::max<Time>(1, os_->priority_granularity);
  const Time level = proc.p_cpu / gran;
  return static_cast<int>(
      std::min<Time>(level, os_->priority_levels - 1));
}

void CpuScheduler::enqueue(Process* proc) {
  const auto lvl = static_cast<std::size_t>(level_of(*proc));
  levels_[lvl].push_back(proc);
  nonempty_mask_ |= (1ULL << lvl);
  ++size_;
  proc->state = ProcState::kReady;
}

Process* CpuScheduler::pop_best() {
  if (size_ == 0) return nullptr;
  const auto lvl = static_cast<std::size_t>(
      std::countr_zero(nonempty_mask_));
  Process* proc = levels_[lvl].front();
  levels_[lvl].pop_front();
  if (levels_[lvl].empty()) nonempty_mask_ &= ~(1ULL << lvl);
  --size_;
  return proc;
}

bool CpuScheduler::preempts(const Process& candidate,
                            const Process& running) const {
  return level_of(candidate) < level_of(running);
}

Time CpuScheduler::decayed(Time p_cpu, int load) const {
  if (load < 1) load = 1;
  // BSD digital decay filter: p_cpu *= 2*load / (2*load + 1).
  return p_cpu * (2 * static_cast<Time>(load)) /
         (2 * static_cast<Time>(load) + 1);
}

bool CpuScheduler::remove(Process* proc) {
  // The process sits at the level implied by its current p_cpu (enqueue
  // and rebucket_all keep buckets in sync with it); scan the others too as
  // a defensive fallback.
  const auto expected = static_cast<std::size_t>(level_of(*proc));
  for (std::size_t offset = 0; offset < levels_.size(); ++offset) {
    const std::size_t lvl = (expected + offset) % levels_.size();
    auto& level = levels_[lvl];
    for (auto it = level.begin(); it != level.end(); ++it) {
      if (*it != proc) continue;
      level.erase(it);
      if (level.empty()) nonempty_mask_ &= ~(1ULL << lvl);
      --size_;
      return true;
    }
  }
  return false;
}

void CpuScheduler::clear() {
  for (auto& level : levels_) level.clear();
  nonempty_mask_ = 0;
  size_ = 0;
}

void CpuScheduler::rebucket_all() {
  drained_.clear();
  for (auto& level : levels_) {
    for (Process* proc : level) drained_.push_back(proc);
    level.clear();
  }
  nonempty_mask_ = 0;
  size_ = 0;
  for (Process* proc : drained_) enqueue(proc);
}

}  // namespace wsched::sim
