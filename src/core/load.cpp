#include "core/load.hpp"

#include <algorithm>
#include <stdexcept>

namespace wsched::core {

DispatchFeedback::DispatchFeedback(std::size_t receivers, std::size_t nodes,
                                   Time sample_window,
                                   double initial_demand_s, DemandScope scope,
                                   double floor)
    : window_(sample_window),
      floor_(floor),
      demand_s_(scope == DemandScope::kShared ? 1 : receivers,
                initial_demand_s),
      sample_(nodes),
      views_(receivers, LoadVec(nodes)),
      view_epoch_(receivers, 0) {
  if (window_ <= 0) throw std::invalid_argument("feedback window must be > 0");
}

void DispatchFeedback::on_sample(const LoadVec& fresh) {
  sample_ = fresh;
  ++epoch_;
}

void DispatchFeedback::on_node_report(std::size_t receiver, std::size_t node,
                                      const LoadInfo& fresh) {
  fresh_view(receiver)[node] = fresh;
}

void DispatchFeedback::on_dispatch(std::size_t receiver, std::size_t node,
                                   double w) {
  // A request with demand d uses roughly w*d of CPU and (1-w)*d of disk
  // over the coming window; expressed as a fraction of the window it is a
  // direct debit against the measured idle ratios.
  const double frac =
      demand_s_[demand_slot(receiver)] / to_seconds(window_);
  LoadRef info = fresh_view(receiver)[node];
  info.cpu_idle_ratio =
      std::max(floor_, info.cpu_idle_ratio - w * frac);
  info.disk_avail_ratio =
      std::max(floor_, info.disk_avail_ratio - (1.0 - w) * frac);
}

void DispatchFeedback::note_dynamic_demand(std::size_t receiver, Time demand) {
  constexpr double kAlpha = 0.05;
  double& demand_s = demand_s_[demand_slot(receiver)];
  demand_s += kAlpha * (to_seconds(demand) - demand_s);
}

LoadMonitor::LoadMonitor(sim::Engine& engine, std::vector<sim::Node*> nodes,
                         Time period, double floor)
    : engine_(engine),
      nodes_(std::move(nodes)),
      period_(period),
      floor_(floor),
      info_(nodes_.size()),
      last_cpu_busy_(nodes_.size(), 0),
      last_disk_busy_(nodes_.size(), 0) {
  if (period_ <= 0) throw std::invalid_argument("sample period must be > 0");
}

void LoadMonitor::tick_trampoline(void* self) {
  static_cast<LoadMonitor*>(self)->on_tick();
}

void LoadMonitor::start() {
  last_sample_ = engine_.now();
  engine_.schedule_call_after(period_, &LoadMonitor::tick_trampoline, this);
}

void LoadMonitor::sample_now() {
  const Time now = engine_.now();
  const Time window = now - last_sample_;
  if (window <= 0) return;
  const auto window_d = static_cast<double>(window);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Time cpu_busy = nodes_[i]->cpu_busy_until(now);
    const Time disk_busy = nodes_[i]->disk_busy_until(now);
    const double cpu_ratio =
        1.0 - static_cast<double>(cpu_busy - last_cpu_busy_[i]) / window_d;
    const double disk_ratio =
        1.0 - static_cast<double>(disk_busy - last_disk_busy_[i]) / window_d;
    info_[i].cpu_idle_ratio = std::clamp(cpu_ratio, floor_, 1.0);
    info_[i].disk_avail_ratio = std::clamp(disk_ratio, floor_, 1.0);
    last_cpu_busy_[i] = cpu_busy;
    last_disk_busy_[i] = disk_busy;
  }
  last_sample_ = now;
}

void LoadMonitor::on_tick() {
  sample_now();
  if (on_sample_) on_sample_();
  engine_.schedule_call_after(period_, &LoadMonitor::tick_trampoline, this);
}

}  // namespace wsched::core
