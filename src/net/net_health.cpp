#include "net/net_health.hpp"

#include <stdexcept>
#include <utility>

namespace wsched::net {

namespace {
constexpr std::uint64_t kHeartbeatLossStream = 0x4E7005;
}  // namespace

NetHealth::NetHealth(sim::Engine& engine, std::vector<sim::Node*> nodes,
                     const Network* network, Config config, std::uint64_t seed)
    : engine_(engine),
      nodes_(std::move(nodes)),
      network_(network),
      config_(config),
      loss_rng_(seed, kHeartbeatLossStream),
      p_(static_cast<int>(nodes_.size())),
      state_(static_cast<std::size_t>(p_) + 1,
             std::vector<fault::NodeHealth>(static_cast<std::size_t>(p_),
                                            fault::NodeHealth::kHealthy)),
      misses_(static_cast<std::size_t>(p_) + 1,
              std::vector<int>(static_cast<std::size_t>(p_), 0)),
      front_healthy_(p_),
      claims_(static_cast<std::size_t>(p_), false),
      observer_alive_(static_cast<std::size_t>(p_), true) {
  if (config_.period <= 0)
    throw std::invalid_argument("health: heartbeat period must be > 0");
  if (config_.suspect_misses < 1 ||
      config_.dead_misses < config_.suspect_misses)
    throw std::invalid_argument("health: need 1 <= suspect <= dead misses");
  for (int n = 0; n < config_.masters && n < p_; ++n)
    claims_[static_cast<std::size_t>(n)] = true;
}

int NetHealth::visible_count(int observer) const {
  const auto& row = state_[static_cast<std::size_t>(observer)];
  int count = 0;
  for (const fault::NodeHealth h : row)
    if (h == fault::NodeHealth::kHealthy) ++count;
  return count;
}

int NetHealth::dead_votes(int target) const {
  int votes = 0;
  for (int o = 0; o < p_; ++o) {
    if (!nodes_[static_cast<std::size_t>(o)]->alive()) continue;
    if (state_[static_cast<std::size_t>(o)][static_cast<std::size_t>(target)] ==
        fault::NodeHealth::kDead)
      ++votes;
  }
  return votes;
}

int NetHealth::claimant_count() const {
  int count = 0;
  for (int n = 0; n < p_; ++n) {
    if (claims_[static_cast<std::size_t>(n)] &&
        nodes_[static_cast<std::size_t>(n)]->alive())
      ++count;
  }
  return count;
}

bool NetHealth::heard(int observer, int target) {
  if (!nodes_[static_cast<std::size_t>(target)]->alive()) return false;
  if (observer == target) return true;  // a live node always sees itself
  const bool reach = network_ == nullptr ||
                     (observer == p_ ? network_->front_end_reaches(target)
                                     : network_->reachable(observer, target));
  if (!reach) return false;
  if (config_.loss > 0.0 && loss_rng_.bernoulli(config_.loss)) return false;
  return true;
}

void NetHealth::check_now() {
  using fault::NodeHealth;
  // Pass 1: every observer updates its row (only the front end without a
  // Network). Front-end transitions are collected and fired only after
  // step-downs, so Membership reacts to a round in a fixed order: rows,
  // then claims, then promotions.
  struct Transition {
    int node;
    NodeHealth from;
    NodeHealth to;
  };
  std::vector<Transition> front_transitions;
  for (int o = network_ != nullptr ? 0 : p_; o <= p_; ++o) {
    const bool is_front = o == p_;
    if (!is_front) {
      const bool alive = nodes_[static_cast<std::size_t>(o)]->alive();
      if (!alive) {
        observer_alive_[static_cast<std::size_t>(o)] = false;
        continue;  // a crashed observer's row freezes
      }
      if (!observer_alive_[static_cast<std::size_t>(o)]) {
        // Revived: forget the stale row and re-learn from scratch.
        observer_alive_[static_cast<std::size_t>(o)] = true;
        auto& row = state_[static_cast<std::size_t>(o)];
        auto& miss = misses_[static_cast<std::size_t>(o)];
        for (int n = 0; n < p_; ++n) {
          row[static_cast<std::size_t>(n)] = NodeHealth::kHealthy;
          miss[static_cast<std::size_t>(n)] = 0;
        }
      }
    }
    auto& row = state_[static_cast<std::size_t>(o)];
    auto& miss = misses_[static_cast<std::size_t>(o)];
    for (int n = 0; n < p_; ++n) {
      const std::size_t ni = static_cast<std::size_t>(n);
      NodeHealth next;
      if (heard(o, n)) {
        miss[ni] = 0;
        next = NodeHealth::kHealthy;
      } else {
        miss[ni] += 1;
        next = miss[ni] >= config_.dead_misses ? NodeHealth::kDead
               : miss[ni] >= config_.suspect_misses ? NodeHealth::kSuspected
                                                    : NodeHealth::kHealthy;
      }
      if (next != row[ni]) {
        const NodeHealth prev = row[ni];
        row[ni] = next;
        if (is_front) {
          if (prev == NodeHealth::kHealthy) --front_healthy_;
          if (next == NodeHealth::kHealthy) ++front_healthy_;
          front_transitions.push_back({n, prev, next});
        }
      }
    }
  }
  // Pass 2: claims. Crashing always drops the claim; with quorum on, a
  // live claimant that can no longer see a majority steps down.
  for (int n = 0; n < p_; ++n) {
    const std::size_t ni = static_cast<std::size_t>(n);
    if (!claims_[ni]) continue;
    if (!nodes_[ni]->alive()) {
      claims_[ni] = false;
      continue;
    }
    if (config_.quorum > 0 && visible_count(n) < config_.quorum) {
      claims_[ni] = false;
      ++stepdowns_;
      if (hooks_.trace != nullptr)
        hooks_.trace->instant(obs::Category::kNet, "step-down",
                              hooks_.cluster_pid, obs::kLaneNet, engine_.now(),
                              {{"node", n}, {"visible", visible_count(n)}});
    }
  }
  // Pass 3: the front-end observer drives Membership.
  if (on_transition_) {
    for (const Transition& t : front_transitions)
      on_transition_(t.node, t.from, t.to);
  }
  // Pass 4: quorum-deferred work (pending promotions) retries.
  if (on_round_) on_round_();
  // Pass 5: split-brain audit — more live claimants than roles means two
  // sides both believe they hold the same mastership.
  if (claimant_count() > config_.masters) {
    ++split_brain_rounds_;
    if (hooks_.trace != nullptr)
      hooks_.trace->instant(obs::Category::kNet, "split-brain",
                            hooks_.cluster_pid, obs::kLaneNet, engine_.now(),
                            {{"claimants", claimant_count()},
                             {"masters", config_.masters}});
  }
}

void NetHealth::tick() {
  check_now();
  engine_.schedule_after(config_.period, [this] { tick(); });
}

void NetHealth::start() {
  engine_.schedule_after(config_.period, [this] { tick(); });
}

}  // namespace wsched::net
