#include "fault/health.hpp"

#include <algorithm>
#include <stdexcept>

namespace wsched::fault {

const char* to_string(NodeHealth health) {
  switch (health) {
    case NodeHealth::kHealthy: return "healthy";
    case NodeHealth::kDegraded: return "degraded";
    case NodeHealth::kSuspected: return "suspected";
    case NodeHealth::kDead: return "dead";
  }
  return "?";
}

SlowHealthMonitor::SlowHealthMonitor(int nodes,
                                     const SlowHealthConfig& config)
    : config_(config),
      ewma_(static_cast<std::size_t>(nodes), Ewma(config.alpha)),
      samples_(static_cast<std::size_t>(nodes), 0),
      state_(static_cast<std::size_t>(nodes), NodeHealth::kHealthy),
      scale_(static_cast<std::size_t>(nodes), 1.0) {
  if (config_.alpha <= 0.0 || config_.alpha > 1.0)
    throw std::invalid_argument("slow-health: alpha must be in (0, 1]");
  if (config_.degrade_ratio <= 1.0 ||
      config_.recover_ratio > config_.degrade_ratio)
    throw std::invalid_argument(
        "slow-health: need 1 < recover_ratio <= degrade_ratio");
  if (config_.min_samples < 1)
    throw std::invalid_argument("slow-health: min_samples must be >= 1");
  if (config_.penalty < 0.0)
    throw std::invalid_argument("slow-health: penalty must be >= 0");
  scratch_.reserve(static_cast<std::size_t>(nodes));
}

void SlowHealthMonitor::on_completion(int node, Time sojourn, Time demand) {
  if (demand <= 0) return;
  const auto idx = static_cast<std::size_t>(node);
  ewma_[idx].add(static_cast<double>(sojourn) / static_cast<double>(demand));
  ++samples_[idx];
}

void SlowHealthMonitor::on_node_down(int node) {
  const auto idx = static_cast<std::size_t>(node);
  ewma_[idx].reset();
  samples_[idx] = 0;
  transition(node, NodeHealth::kHealthy);
}

void SlowHealthMonitor::transition(int node, NodeHealth to) {
  const auto idx = static_cast<std::size_t>(node);
  const NodeHealth from = state_[idx];
  if (from == to) return;
  state_[idx] = to;
  if (to == NodeHealth::kDegraded) {
    ++degraded_;
    ++degraded_count_;
    scale_[idx] = 1.0 + config_.penalty;
  } else {
    ++recovered_;
    --degraded_count_;
    scale_[idx] = 1.0;
  }
  if (on_transition_) on_transition_(node, from, to);
}

void SlowHealthMonitor::check_now(const std::vector<sim::Node*>& nodes) {
  // Median stretch EWMA across primed alive peers: the baseline the
  // outlier test compares against. With fewer than two primed nodes there
  // is no peer group and nothing is flagged.
  scratch_.clear();
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (!nodes[i]->alive()) continue;
    if (samples_[i] < config_.min_samples) continue;
    scratch_.push_back(ewma_[i].value());
  }
  if (scratch_.size() < 2) return;
  const auto mid = scratch_.begin() +
                   static_cast<std::ptrdiff_t>(scratch_.size() / 2);
  std::nth_element(scratch_.begin(), mid, scratch_.end());
  const double median = *mid;
  if (median <= 0.0) return;

  for (std::size_t i = 0; i < state_.size(); ++i) {
    const int node = static_cast<int>(i);
    if (!nodes[i]->alive() || samples_[i] < config_.min_samples) continue;
    const double ratio = ewma_[i].value() / median;
    if (state_[i] == NodeHealth::kHealthy) {
      if (ratio > config_.degrade_ratio)
        transition(node, NodeHealth::kDegraded);
    } else if (state_[i] == NodeHealth::kDegraded) {
      if (ratio < config_.recover_ratio)
        transition(node, NodeHealth::kHealthy);
    }
  }
}

}  // namespace wsched::fault
