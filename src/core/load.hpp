// Periodic load collection — the simulator's stand-in for the paper's
// rstat()-based monitoring ("we use the Unix rstat() function to collect
// the load information on each node", §4). Ratios are computed over the
// sampling window, so dispatchers always act on slightly stale data, just
// like the real system.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "util/time.hpp"

namespace wsched::core {

/// Snapshot of one node's availability, as the scheduler sees it.
struct LoadInfo {
  double cpu_idle_ratio = 1.0;   ///< CPUIdleRatio in Equation 5
  double disk_avail_ratio = 1.0; ///< DiskAvailRatio in Equation 5
};

/// Mutable proxy into one LoadVec slot: keeps the `info.cpu_idle_ratio`
/// field idiom working over the split arrays.
struct LoadRef {
  double& cpu_idle_ratio;
  double& disk_avail_ratio;
  LoadRef& operator=(const LoadInfo& info) {
    cpu_idle_ratio = info.cpu_idle_ratio;
    disk_avail_ratio = info.disk_avail_ratio;
    return *this;
  }
  operator LoadInfo() const { return {cpu_idle_ratio, disk_avail_ratio}; }
};

/// Structure-of-arrays vector of per-node load snapshots. The RSRC scan —
/// the hottest read in dispatch — walks the two ratio arrays with raw
/// pointer indexing (cpu_idle_data/disk_avail_data) instead of striding
/// over structs; everything else reads/writes whole LoadInfo values
/// through operator[].
class LoadVec {
 public:
  LoadVec() = default;
  explicit LoadVec(std::size_t n) : cpu_idle_(n, 1.0), disk_avail_(n, 1.0) {}
  LoadVec(std::size_t n, const LoadInfo& fill)
      : cpu_idle_(n, fill.cpu_idle_ratio),
        disk_avail_(n, fill.disk_avail_ratio) {}
  LoadVec(std::initializer_list<LoadInfo> init) {
    for (const LoadInfo& info : init) push_back(info);
  }
  /// Implicit on purpose: AoS call sites (tests, ad-hoc tooling) keep
  /// passing std::vector<LoadInfo> literals.
  LoadVec(const std::vector<LoadInfo>& infos) {  // NOLINT
    reserve(infos.size());
    for (const LoadInfo& info : infos) push_back(info);
  }

  std::size_t size() const { return cpu_idle_.size(); }
  bool empty() const { return cpu_idle_.empty(); }
  void reserve(std::size_t n) {
    cpu_idle_.reserve(n);
    disk_avail_.reserve(n);
  }
  void assign(std::size_t n, const LoadInfo& fill) {
    cpu_idle_.assign(n, fill.cpu_idle_ratio);
    disk_avail_.assign(n, fill.disk_avail_ratio);
  }
  void push_back(const LoadInfo& info) {
    cpu_idle_.push_back(info.cpu_idle_ratio);
    disk_avail_.push_back(info.disk_avail_ratio);
  }

  LoadInfo operator[](std::size_t i) const {
    return {cpu_idle_[i], disk_avail_[i]};
  }
  LoadRef operator[](std::size_t i) {
    return {cpu_idle_[i], disk_avail_[i]};
  }
  LoadInfo at(std::size_t i) const {
    return {cpu_idle_.at(i), disk_avail_.at(i)};
  }

  const double* cpu_idle_data() const { return cpu_idle_.data(); }
  const double* disk_avail_data() const { return disk_avail_.data(); }

 private:
  std::vector<double> cpu_idle_;
  std::vector<double> disk_avail_;
};

/// Dispatcher-side feedback on top of periodically sampled load, for
/// every receiver at once.
///
/// Sampled ratios alone make a min-cost dispatcher herd: every dynamic
/// request in one sampling window picks the same "idle" node. A working
/// implementation must account for work it has already dispatched but that
/// the next sample has not yet observed. Each receiver (a master acting as
/// the accepting front end) keeps its own view: the latest load picture
/// debited by the CPU/disk work *it* handed out since (estimated from the
/// smoothed dynamic demand and the request's sampled `w`). A fresh sample
/// clears the debits because the measurement now reflects them.
///
/// A sample is stored once; a receiver's view copies it on that receiver's
/// first read or debit after the sample (a sample epoch tells), so a tick
/// costs one copy rather than one per receiver, and the views read exactly
/// what eager per-receiver copies would hold.
class DispatchFeedback {
 public:
  /// Who learns a completed dynamic request's demand. kShared: every
  /// receiver (the perfect-wire oracle), so one estimate serves all.
  /// kPerReceiver: only the receiver that served it (the net model).
  enum class DemandScope { kShared, kPerReceiver };

  DispatchFeedback(std::size_t receivers, std::size_t nodes,
                   Time sample_window, double initial_demand_s,
                   DemandScope scope = DemandScope::kShared,
                   double floor = 0.01);

  /// A fresh load sample for every receiver (call whenever the monitor
  /// samples).
  void on_sample(const LoadVec& fresh);

  /// Refreshes one node's entry in `receiver`'s view from a delivered load
  /// report (the net-model path, where nodes report individually over the
  /// control plane and reports can be lost or delayed independently).
  void on_node_report(std::size_t receiver, std::size_t node,
                      const LoadInfo& fresh);

  /// Debits a dynamic dispatch by `receiver` from node `node`'s
  /// availability in that receiver's view.
  void on_dispatch(std::size_t receiver, std::size_t node, double w);

  /// Feeds a completed dynamic request's true demand, served through
  /// `receiver`, into the running demand estimate (the paper's off-line
  /// sampling analogue).
  void note_dynamic_demand(std::size_t receiver, Time demand);

  /// The load picture `receiver` routes by.
  const LoadVec& effective(std::size_t receiver) {
    return fresh_view(receiver);
  }
  double demand_estimate_s(std::size_t receiver) const {
    return demand_s_[demand_slot(receiver)];
  }

 private:
  LoadVec& fresh_view(std::size_t receiver) {
    if (view_epoch_[receiver] != epoch_) {
      views_[receiver] = sample_;
      view_epoch_[receiver] = epoch_;
    }
    return views_[receiver];
  }
  std::size_t demand_slot(std::size_t receiver) const {
    return demand_s_.size() == 1 ? 0 : receiver;
  }

  Time window_;
  double floor_;
  /// EWMA of dynamic service demand, seconds: one entry when shared, one
  /// per receiver otherwise.
  std::vector<double> demand_s_;
  LoadVec sample_;
  std::uint64_t epoch_ = 0;
  std::vector<LoadVec> views_;
  std::vector<std::uint64_t> view_epoch_;
};

class LoadMonitor {
 public:
  /// Ratios are clamped below by `floor` so the RSRC division is defined
  /// even on a saturated node.
  LoadMonitor(sim::Engine& engine, std::vector<sim::Node*> nodes,
              Time period, double floor = 0.01);

  /// Schedules the periodic sampling; call once before the run.
  void start();

  LoadInfo info(std::size_t node) const { return info_.at(node); }
  const LoadVec& all() const { return info_; }
  Time period() const { return period_; }
  /// Simulated time of the most recent sample (load-report origin stamp).
  Time last_sample_time() const { return last_sample_; }

  /// Takes one sample immediately (also used by start()).
  void sample_now();

  /// Invoked after every periodic sample (e.g. to refresh a
  /// DispatchFeedback snapshot).
  void set_on_sample(std::function<void()> fn) { on_sample_ = std::move(fn); }

 private:
  void on_tick();
  /// Engine trampoline: self-reschedules without allocating a closure.
  static void tick_trampoline(void* self);

  sim::Engine& engine_;
  std::vector<sim::Node*> nodes_;
  Time period_;
  double floor_;
  LoadVec info_;
  std::vector<Time> last_cpu_busy_;
  std::vector<Time> last_disk_busy_;
  Time last_sample_ = 0;
  std::function<void()> on_sample_;
};

}  // namespace wsched::core
