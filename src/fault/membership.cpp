#include "fault/membership.hpp"

#include <stdexcept>

namespace wsched::fault {

Membership::Membership(int p, int m, bool failover) : failover_(failover) {
  if (p < 1) throw std::invalid_argument("membership: p must be >= 1");
  if (m < 1 || m > p)
    throw std::invalid_argument("membership: need 1 <= m <= p");
  master_.assign(static_cast<std::size_t>(p), false);
  alive_.assign(static_cast<std::size_t>(p), true);
  for (int i = 0; i < m; ++i) master_[static_cast<std::size_t>(i)] = true;
  rebuild();
}

void Membership::set_master_count(int m) {
  if (failover_)
    throw std::logic_error("membership: failover owns the roles");
  if (m < 1 || m > p())
    throw std::invalid_argument("membership: need 1 <= m <= p");
  for (int i = 0; i < p(); ++i)
    master_[static_cast<std::size_t>(i)] = i < m;
  rebuild();
}

void Membership::rebuild() {
  masters_.clear();
  slaves_.clear();
  available_.clear();
  for (int i = 0; i < p(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (!alive_[idx]) continue;
    available_.push_back(i);
    if (master_[idx]) {
      masters_.push_back(i);
    } else {
      slaves_.push_back(i);
    }
  }
}

int Membership::promote_replacement(int node) {
  const auto idx = static_cast<std::size_t>(node);
  // Promote the lowest-id eligible healthy slave, moving the role off the
  // dead node so it rejoins as a slave. With no promotable slave the role
  // stays put (effective m shrinks until the node recovers).
  for (int i = 0; i < p(); ++i) {
    const auto cand = static_cast<std::size_t>(i);
    if (!alive_[cand] || master_[cand]) continue;
    if (promotion_filter_ && !promotion_filter_(i)) continue;
    master_[cand] = true;
    master_[idx] = false;
    ++promotions_;
    return i;
  }
  return -1;
}

int Membership::mark_dead(int node) {
  const auto idx = static_cast<std::size_t>(node);
  if (!alive_[idx]) return -1;
  alive_[idx] = false;
  int promoted = -1;
  if (master_[idx] && (!promotion_gate_ || promotion_gate_(node)))
    promoted = promote_replacement(node);
  rebuild();
  return promoted;
}

int Membership::retry_promotion(int node) {
  const auto idx = static_cast<std::size_t>(node);
  if (alive_[idx] || !master_[idx]) return -1;  // recovered, or role moved
  if (promotion_gate_ && !promotion_gate_(node)) return -1;
  const int promoted = promote_replacement(node);
  if (promoted >= 0) rebuild();
  return promoted;
}

void Membership::mark_alive(int node) {
  const auto idx = static_cast<std::size_t>(node);
  if (alive_[idx]) return;
  alive_[idx] = true;
  rebuild();
}

}  // namespace wsched::fault
