#include "fault/fault.hpp"

#include <stdexcept>

#include "obs/log.hpp"

namespace wsched::fault {

FaultInjector::FaultInjector(sim::Engine& engine,
                             std::vector<sim::Node*> nodes,
                             const FaultConfig& config, int initial_masters,
                             std::uint64_t seed)
    : engine_(engine),
      nodes_(std::move(nodes)),
      config_(config),
      initial_masters_(initial_masters),
      down_since_(nodes_.size(), 0) {
  for (const FaultEvent& event : config_.script)
    if (event.node < 0 ||
        event.node >= static_cast<int>(nodes_.size()))
      throw std::invalid_argument("fault script targets unknown node");
  if (config_.mttf_s < 0.0 || config_.mttr_s <= 0.0)
    throw std::invalid_argument("fault: need mttf >= 0 and mttr > 0");
  if (config_.degrade_mttf_s < 0.0 || config_.degrade_mttr_s <= 0.0)
    throw std::invalid_argument(
        "fault: need degrade mttf >= 0 and degrade mttr > 0");
  if (config_.degrade_cpu_factor <= 0.0 ||
      config_.degrade_disk_factor <= 0.0 || config_.stall_factor <= 0.0)
    throw std::invalid_argument("fault: degrade factors must be > 0");
  if (config_.stall_period_s < 0.0 || config_.stall_len_s < 0.0)
    throw std::invalid_argument("fault: stall timings must be >= 0");
  // Stream ids keyed by node id: adding consumers elsewhere never
  // perturbs fault times, and vice versa. Fail-slow churn owns a second
  // per-node family so crash times are independent of degrade times.
  streams_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    streams_.emplace_back(seed, 0xFA010000ULL + i);
  if (config_.degrade_mttf_s > 0.0) {
    degrade_streams_.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      degrade_streams_.emplace_back(seed, 0xFA020000ULL + i);
    degrade_open_.assign(nodes_.size(), 0);
    degrade_epoch_.assign(nodes_.size(), 0);
    degrade_since_.assign(nodes_.size(), 0);
  }
}

void FaultInjector::start() {
  for (const FaultEvent& event : config_.script)
    engine_.schedule_at(event.at, [this, event] { apply(event); });
  if (config_.mttf_s > 0.0) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const bool master = static_cast<int>(i) < initial_masters_;
      if (master ? config_.fail_masters : config_.fail_slaves)
        schedule_next_failure(static_cast<int>(i));
    }
  }
  if (config_.degrade_mttf_s > 0.0) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const bool master = static_cast<int>(i) < initial_masters_;
      if (master ? config_.fail_masters : config_.fail_slaves)
        schedule_next_degrade(static_cast<int>(i));
    }
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kCrash:
      crash_node(event.node);
      break;
    case FaultKind::kRecover:
      recover_node(event.node);
      break;
    case FaultKind::kDegrade:
      // Factors persist across crash/recovery until explicitly restored.
      nodes_[static_cast<std::size_t>(event.node)]->set_degradation(
          event.cpu_factor, event.disk_factor);
      if (trace_ != nullptr)
        trace_->instant(obs::Category::kFault, "degrade", event.node,
                        obs::kLaneFault, engine_.now(),
                        {{"cpu_factor", event.cpu_factor},
                         {"disk_factor", event.disk_factor}});
      obs::logf(obs::LogLevel::kInfo, "fault",
                "t=%.3fs node %d degraded (cpu x%.2f, disk x%.2f)",
                to_seconds(engine_.now()), event.node, event.cpu_factor,
                event.disk_factor);
      break;
  }
}

void FaultInjector::crash_node(int node) {
  sim::Node* target = nodes_[static_cast<std::size_t>(node)];
  if (!target->alive()) return;  // scripted + stochastic crash collided
  std::vector<sim::Job> dropped = target->crash();
  ++crashes_;
  ++down_count_;
  down_since_[static_cast<std::size_t>(node)] = engine_.now();
  if (trace_ != nullptr)
    trace_->instant(obs::Category::kFault, "crash", node, obs::kLaneFault,
                    engine_.now(),
                    {{"dropped_jobs",
                      static_cast<std::uint64_t>(dropped.size())}});
  obs::logf(obs::LogLevel::kWarn, "fault",
            "t=%.3fs node %d crashed, %zu in-flight jobs dropped",
            to_seconds(engine_.now()), node, dropped.size());
  if (on_crash_) on_crash_(node, std::move(dropped));
}

void FaultInjector::recover_node(int node) {
  sim::Node* target = nodes_[static_cast<std::size_t>(node)];
  if (target->alive()) return;
  target->recover();
  --down_count_;
  downtime_ +=
      engine_.now() - down_since_[static_cast<std::size_t>(node)];
  if (trace_ != nullptr)
    trace_->instant(obs::Category::kFault, "recover", node, obs::kLaneFault,
                    engine_.now());
  obs::logf(obs::LogLevel::kInfo, "fault", "t=%.3fs node %d recovered",
            to_seconds(engine_.now()), node);
  if (on_recover_) on_recover_(node);
}

void FaultInjector::schedule_next_failure(int node) {
  Rng& rng = streams_[static_cast<std::size_t>(node)];
  const Time ttf = from_seconds(rng.exponential(config_.mttf_s));
  const Time ttr = from_seconds(rng.exponential(config_.mttr_s));
  engine_.schedule_after(ttf, [this, node] { crash_node(node); });
  engine_.schedule_after(ttf + ttr, [this, node] {
    recover_node(node);
    schedule_next_failure(node);
  });
}

void FaultInjector::schedule_next_degrade(int node) {
  Rng& rng = degrade_streams_[static_cast<std::size_t>(node)];
  const Time ttd = from_seconds(rng.exponential(config_.degrade_mttf_s));
  const Time tth = from_seconds(rng.exponential(config_.degrade_mttr_s));
  engine_.schedule_after(ttd, [this, node, tth] {
    begin_degrade(node, tth);
  });
}

void FaultInjector::begin_degrade(int node, Time heal_after) {
  const auto idx = static_cast<std::size_t>(node);
  if (!nodes_[idx]->alive()) {
    // The node is down; skip this episode but keep the churn going.
    schedule_next_degrade(node);
    return;
  }
  degrade_open_[idx] = 1;
  degrade_since_[idx] = engine_.now();
  ++degrade_events_;
  const std::uint64_t episode = ++degrade_epoch_[idx];
  nodes_[idx]->set_degradation(config_.degrade_cpu_factor,
                               config_.degrade_disk_factor);
  if (trace_ != nullptr)
    trace_->instant(obs::Category::kFault, "degrade", node, obs::kLaneFault,
                    engine_.now(),
                    {{"cpu_factor", config_.degrade_cpu_factor},
                     {"disk_factor", config_.degrade_disk_factor}});
  obs::logf(obs::LogLevel::kInfo, "fault",
            "t=%.3fs node %d fail-slow episode (cpu x%.2f, disk x%.2f)",
            to_seconds(engine_.now()), node, config_.degrade_cpu_factor,
            config_.degrade_disk_factor);
  if (config_.stall_period_s > 0.0) schedule_stall(node, episode);
  engine_.schedule_after(heal_after, [this, node, episode] {
    end_degrade(node, episode);
  });
}

void FaultInjector::end_degrade(int node, std::uint64_t episode) {
  const auto idx = static_cast<std::size_t>(node);
  if (degrade_epoch_[idx] != episode || degrade_open_[idx] == 0) return;
  degrade_open_[idx] = 0;
  degraded_time_ += engine_.now() - degrade_since_[idx];
  // Bump the epoch so a stall event still in flight cannot re-limp the
  // healed node.
  ++degrade_epoch_[idx];
  nodes_[idx]->set_degradation(1.0, 1.0);
  if (trace_ != nullptr)
    trace_->instant(obs::Category::kFault, "heal", node, obs::kLaneFault,
                    engine_.now());
  obs::logf(obs::LogLevel::kInfo, "fault",
            "t=%.3fs node %d fail-slow episode healed",
            to_seconds(engine_.now()), node);
  schedule_next_degrade(node);
}

void FaultInjector::schedule_stall(int node, std::uint64_t episode) {
  const auto idx = static_cast<std::size_t>(node);
  Rng& rng = degrade_streams_[idx];
  const Time gap = from_seconds(rng.exponential(config_.stall_period_s));
  const Time len = from_seconds(config_.stall_len_s);
  engine_.schedule_after(gap, [this, node, episode, len] {
    const auto i = static_cast<std::size_t>(node);
    if (degrade_epoch_[i] != episode) return;  // episode closed
    if (nodes_[i]->alive()) {
      nodes_[i]->set_degradation(config_.stall_factor, config_.stall_factor);
      if (trace_ != nullptr)
        trace_->instant(obs::Category::kFault, "stall", node,
                        obs::kLaneFault, engine_.now(),
                        {{"factor", config_.stall_factor}});
    }
    engine_.schedule_after(len, [this, node, episode] {
      const auto j = static_cast<std::size_t>(node);
      if (degrade_epoch_[j] != episode) return;
      if (nodes_[j]->alive())
        nodes_[j]->set_degradation(config_.degrade_cpu_factor,
                                   config_.degrade_disk_factor);
      schedule_stall(node, episode);
    });
  });
}

Time FaultInjector::degraded_until(Time now) const {
  Time total = degraded_time_;
  for (std::size_t i = 0; i < degrade_open_.size(); ++i)
    if (degrade_open_[i] != 0) total += now - degrade_since_[i];
  return total;
}

Time FaultInjector::downtime_until(Time now) const {
  Time total = downtime_;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!nodes_[i]->alive()) total += now - down_since_[i];
  return total;
}

double FaultInjector::availability(Time horizon) const {
  if (horizon <= 0 || nodes_.empty()) return 1.0;
  const double possible =
      static_cast<double>(horizon) * static_cast<double>(nodes_.size());
  return 1.0 - static_cast<double>(downtime_until(horizon)) / possible;
}

}  // namespace wsched::fault
