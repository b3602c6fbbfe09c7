// BSD 4.3-style multilevel feedback ready queue (§5.1: "The process ready
// queue is a multilevel feedback queue divided into multiple lists according
// to process priority. Processes are scheduled based on priority and may be
// preempted following quantum expiration.").
//
// Priority is derived from the process's decayed CPU usage (p_cpu): one
// level per `priority_granularity` of usage, clamped to the top level, so
// freshly arrived and I/O-bound processes run ahead of CPU hogs. The
// periodic decay (`decay_all`) mirrors the BSD digital-decay filter
// p_cpu = p_cpu * 2*load / (2*load + 1).
//
// The queue is a passive structure; the Node drives dispatching, quantum
// accounting and preemption.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/params.hpp"
#include "sim/process.hpp"

namespace wsched::sim {

class CpuScheduler {
 public:
  explicit CpuScheduler(const OsParams& os);

  /// Inserts a runnable process at the level implied by its p_cpu.
  void enqueue(Process* proc);

  /// Removes and returns the best-priority runnable process; nullptr when
  /// the ready queue is empty.
  Process* pop_best();

  /// Priority level the process would occupy right now (0 is best).
  int level_of(const Process& proc) const;

  /// True when `candidate` would preempt `running` on wakeup (strictly
  /// better level, BSD-style wakeup preemption).
  bool preempts(const Process& candidate, const Process& running) const;

  /// Re-buckets every queued process after the caller has updated their
  /// p_cpu values (the Node decays all live processes, including ones
  /// blocked on disk, then calls this).
  void rebucket_all();

  /// Decay applied to one p_cpu value given the load average.
  Time decayed(Time p_cpu, int load) const;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Removes one queued process wherever it sits (client abandonment).
  /// Returns false when the process is not queued here.
  bool remove(Process* proc);

  /// Drops every queued process (node crash).
  void clear();

 private:
  const OsParams* os_;
  std::vector<std::deque<Process*>> levels_;
  std::size_t size_ = 0;
  std::uint64_t nonempty_mask_ = 0;  // bit i set when levels_[i] nonempty
  /// rebucket_all()'s scratch: the queue in level order, reused so that
  /// the periodic re-bucketing allocates nothing once warm.
  std::vector<Process*> drained_;
};

}  // namespace wsched::sim
