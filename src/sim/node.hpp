// One simulated server node: a CPU with a BSD-style MLFQ, one disk with a
// round-robin queue, and demand-paged memory. The Node owns its processes
// and drives their CPU-burst / I/O-burst state machines on the shared
// event engine.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/cpu_sched.hpp"
#include "sim/disk_sched.hpp"
#include "sim/engine.hpp"
#include "sim/memory.hpp"
#include "sim/params.hpp"
#include "sim/process.hpp"

namespace wsched::sim {

/// Observability hooks one node reports into; every pointer may be null
/// (the default), in which case the corresponding site is a single
/// predictable branch.
struct NodeObsHooks {
  obs::TraceSink* trace = nullptr;
  obs::SpanRecorder* spans = nullptr;
};

/// Scheduler events one node has executed.
struct NodeCounts {
  std::uint64_t forks = 0;             ///< CGI process creations
  std::uint64_t context_switches = 0;  ///< switches that charged a cost
  std::uint64_t preemptions = 0;
  std::uint64_t cpu_slices = 0;        ///< CPU slices run to their end
  std::uint64_t disk_slices = 0;
};

class Node {
 public:
  using CompletionFn = std::function<void(const Job&, Time completion)>;

  Node(Engine& engine, const OsParams& os, NodeParams params, int id);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  int id() const { return id_; }

  /// Invoked when a job finishes all of its bursts.
  void set_completion_callback(CompletionFn fn) { on_complete_ = std::move(fn); }

  /// Attaches tracing hooks (all-null by default: zero effect).
  void set_obs(const NodeObsHooks& hooks) { obs_ = hooks; }

  /// Accepts a job at the current engine time: charges fork overhead for
  /// dynamic requests, allocates memory (incurring paging I/O on
  /// shortfall), plans bursts and makes the process runnable.
  /// Precondition: the node is alive (callers must check `alive()`).
  void submit(Job job);

  /// Client abandonment (overload layer): removes the process executing
  /// `job_id` wherever it sits — ready queue, CPU, disk ring or disk head —
  /// releases its memory and charges any partially-run slice pro rata. The
  /// completion callback does NOT fire. Returns false when no live process
  /// carries the id.
  bool abort(std::uint64_t job_id);

  /// Hedge cancellation: identical mechanics to abort() — the process is
  /// removed wherever it sits, partial slices are charged pro rata, and
  /// its memory is released — but the trace marks the request "cancelled"
  /// rather than "abandoned". Tolerates a dead node (returns false), so
  /// the cluster may cancel against a possibly-stale location without
  /// checking liveness first.
  bool cancel(std::uint64_t job_id);

  // --- fault model (driven by fault::FaultInjector) ---

  bool alive() const { return alive_; }

  /// Kills the node: every in-flight process is destroyed (its partial work
  /// is lost), queues are cleared, pending slice events are cancelled and
  /// memory is reclaimed. Returns the jobs that were live so the cluster
  /// can re-dispatch them. The partially-run CPU/disk slices are charged to
  /// the busy counters pro rata so load accounting stays monotone.
  std::vector<Job> crash();

  /// Brings a crashed node back with empty queues and cold memory.
  void recover();

  // --- power state (driven by ctrl::Autoscaler) ---

  bool powered() const { return powered_; }

  /// Powers the node down for energy saving. Draining reuses the crash
  /// path (partial slices charged pro rata, queues cleared, memory
  /// reclaimed); the live jobs are returned so the cluster can migrate
  /// them to powered nodes instead of losing them. Powering down an
  /// already-dead node only flips the flag.
  std::vector<Job> power_down();

  /// Powers the node back up: cold queues and memory, like recover().
  void power_up();

  /// Degraded-mode fault: scales effective CPU/disk speed by the given
  /// factors (1.0 = nominal, 0.25 = four times slower). Takes effect from
  /// the next scheduled slice; the in-flight slice completes as planned.
  void set_degradation(double cpu_factor, double disk_factor);
  double cpu_degradation() const { return cpu_degr_; }
  double disk_degradation() const { return disk_degr_; }

  // --- load introspection (consumed by core::LoadMonitor) ---

  /// Cumulative busy CPU time (context switches included) up to `now`,
  /// counting the in-flight slice pro rata.
  Time cpu_busy_until(Time now) const;
  /// Cumulative busy disk time up to `now`, in-flight slice pro rata.
  Time disk_busy_until(Time now) const;

  std::size_t live_processes() const { return live_.size(); }
  /// Runnable processes, the one on the CPU included (probe metric).
  std::size_t run_queue_length() const {
    return cpu_sched_.size() + (running_ != nullptr ? 1 : 0);
  }
  /// Disk-queued processes, the in-flight slice included (probe metric).
  std::size_t disk_queue_length() const {
    return disk_sched_.size() + (disk_active_ != nullptr ? 1 : 0);
  }
  std::uint64_t completed() const { return completed_; }
  const NodeCounts& counts() const { return counts_; }
  const MemoryManager& memory() const { return memory_; }
  const NodeParams& params() const { return params_; }

  // Totals for conservation checks in tests.
  Time total_cpu_service() const { return total_cpu_service_; }
  Time total_disk_service() const { return total_disk_service_; }
  Time total_context_switch() const { return total_context_switch_; }

 private:
  // The engine dispatches the typed slice-end/tick events straight into
  // the private handlers below.
  friend class Engine;

  void route(Process* proc);
  void enter_ready(Process* proc);
  void try_dispatch();
  void preempt_running();
  void on_cpu_slice_end(std::uint64_t token);
  void enter_disk(Process* proc);
  void try_disk();
  void on_disk_slice_end(std::uint64_t token);
  void finish_cycle(Process* proc);
  void complete(Process* proc);
  void ensure_tick();
  void on_tick();

  /// Shared abort/cancel mechanics; `note` is the trace key stamped on the
  /// request's async-end event ("abandoned" or "cancelled").
  bool remove_live(std::uint64_t job_id, const char* note);

  /// Pops a recycled process from the free list (or grows the arena) and
  /// resets every behavioral field to its freshly-constructed value; the
  /// cycle vector keeps its capacity so steady-state submit() is
  /// allocation-free.
  Process* acquire_process();
  void release_process(Process* proc) { free_procs_.push_back(proc); }

  /// Converts CPU work (reference seconds) to wall time on this node.
  Time cpu_wall(Time work) const;
  Time disk_wall(Time work) const;

  Engine& engine_;
  const OsParams& os_;
  NodeParams params_;
  int id_;

  CpuScheduler cpu_sched_;
  DiskScheduler disk_sched_;
  MemoryManager memory_;

  std::vector<Process*> live_;

  // Process arena: deque for stable addresses, free list for O(1) reuse.
  // Processes are never destroyed while the node lives; completed ones go
  // back on the free list with their burst-plan capacity intact.
  std::deque<Process> arena_;
  std::vector<Process*> free_procs_;

  // CPU dispatch state. `cpu_epoch_` lazily cancels stale slice-end events.
  Process* running_ = nullptr;
  Process* last_on_cpu_ = nullptr;
  std::uint64_t cpu_epoch_ = 0;
  Time slice_start_ = 0;    ///< wall time the slice begins (after any switch)
  Time slice_work_ = 0;     ///< planned CPU work in the slice (ref seconds)

  // Disk state. Disk slices are never preempted; the epoch only advances
  // on a crash, cancelling the in-flight slice-end event.
  Process* disk_active_ = nullptr;
  std::uint64_t disk_epoch_ = 0;
  Time disk_slice_start_ = 0;
  Time disk_slice_work_ = 0;

  bool alive_ = true;
  bool powered_ = true;     ///< autoscaler power state (orthogonal to alive_)
  double cpu_degr_ = 1.0;   ///< degraded-mode CPU speed factor
  double disk_degr_ = 1.0;  ///< degraded-mode disk speed factor

  bool tick_active_ = false;

  NodeObsHooks obs_;
  NodeCounts counts_;
  CompletionFn on_complete_;

  Time cpu_busy_ = 0;   ///< completed busy wall time (incl. switches)
  Time disk_busy_ = 0;
  std::uint64_t completed_ = 0;
  Time total_cpu_service_ = 0;
  Time total_disk_service_ = 0;
  Time total_context_switch_ = 0;
};

}  // namespace wsched::sim
