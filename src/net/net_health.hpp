// Heartbeat failure detection, over the lossy interconnect or a perfect
// wire.
//
// A healthy node answers every heartbeat round; a crashed node goes
// silent. Each observer counts consecutive missed heartbeats per target
// and declares it kSuspected after `suspect_misses` and kDead after
// `dead_misses`, so detection takes up to `dead_misses` periods, not
// zero. A dead node is *not* an idle node: its busy counters freeze, so to
// a naive min-RSRC dispatcher it looks perfectly idle, which is exactly
// why dispatch routes by declared health and not by sampled load alone.
// Recovery is detected on the first heartbeat that comes back.
//
// Without a Network (null) every live node is heard, so the front end's
// row is an exact, delayed copy of node liveness. Over a real interconnect
// every node (plus the dispatch front end) observes every other node
// through its own lossy, partitionable links, so observers disagree: a
// partition makes both sides suspect each other (false suspicion) and
// random loss can make one unlucky observer declare a healthy node dead.
//
// NetHealth keeps the full (p + 1) x p observer matrix — rows 0..p-1 are
// the nodes, row p is the front end — with per-pair miss counters. The
// node rows are evaluated only when a Network exists: only the quorum
// gate and step-down read them. On top of the matrix sit the split-brain
// safety mechanics:
//
//  * every node tracks whether it *claims* the master role (its own
//    belief, updated on promotion, step-down, crash, or rejoin);
//  * with quorum on, a claiming node whose own row sees fewer than
//    floor(p/2) + 1 live nodes steps down (a minority master stops
//    serving), and Membership's promotion gate (installed by ClusterSim)
//    requires a majority of live observers to corroborate a death before
//    the role moves;
//  * every round, the number of live claimants is compared against the
//    configured master count — any excess is a split-brain round, the
//    quantity the partition drill asserts is zero.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/health.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"

namespace wsched::net {

class NetHealth {
 public:
  struct Config {
    /// Heartbeat interval (> 0); misses thresholds must satisfy
    /// 1 <= suspect <= dead.
    Time period = 50 * kMillisecond;
    int suspect_misses = 1;
    int dead_misses = 2;
    /// Per-heartbeat loss probability (mirrors NetworkParams::loss;
    /// heartbeats are modeled statistically rather than as queued
    /// messages, on a dedicated stream). 0 without a Network.
    double loss = 0.0;
    /// Quorum size for step-down (floor(p/2) + 1 when enabled); 0
    /// disables the step-down rule entirely.
    int quorum = 0;
    /// How many master roles exist; claimants above this count in one
    /// round are a split-brain round.
    int masters = 1;
  };

  struct Hooks {
    obs::TraceSink* trace = nullptr;
    int cluster_pid = 0;
  };

  using TransitionFn =
      std::function<void(int node, fault::NodeHealth from, fault::NodeHealth to)>;

  /// `network` null means a perfect wire: every live node is heard.
  NetHealth(sim::Engine& engine, std::vector<sim::Node*> nodes,
            const Network* network, Config config, std::uint64_t seed);

  void set_hooks(const Hooks& hooks) { hooks_ = hooks; }
  /// Fires for front-end-view transitions, after the internal state is
  /// updated — ClusterSim drives Membership off this observer, the one
  /// that routes requests.
  void set_on_transition(TransitionFn fn) { on_transition_ = std::move(fn); }
  /// Fires once per round after transitions and step-downs — used to
  /// retry quorum-deferred promotions.
  void set_on_round(std::function<void()> fn) { on_round_ = std::move(fn); }

  void start();
  /// Runs one detection round immediately (also used by tests).
  void check_now();

  // --- front-end observer view (row p) ---
  fault::NodeHealth health(int node) const {
    return state_[static_cast<std::size_t>(p_)][static_cast<std::size_t>(node)];
  }
  int healthy_count() const { return front_healthy_; }

  // --- quorum inputs ---
  /// Live nodes visible (healthy) in observer `o`'s own row.
  int visible_count(int observer) const;
  /// Live observers whose row declares `target` dead.
  int dead_votes(int target) const;

  // --- master-role claims ---
  void set_claim(int node, bool claims) {
    claims_[static_cast<std::size_t>(node)] = claims;
  }
  bool claims_master(int node) const {
    return claims_[static_cast<std::size_t>(node)];
  }
  /// Live nodes currently claiming the master role.
  int claimant_count() const;

  std::uint64_t stepdowns() const { return stepdowns_; }
  std::uint64_t split_brain_rounds() const { return split_brain_rounds_; }

 private:
  bool heard(int observer, int target);
  void tick();

  sim::Engine& engine_;
  std::vector<sim::Node*> nodes_;
  const Network* network_;
  Config config_;
  Rng loss_rng_;
  Hooks hooks_;
  TransitionFn on_transition_;
  std::function<void()> on_round_;

  int p_;
  /// Rows 0..p-1: node observers; row p: the front end.
  std::vector<std::vector<fault::NodeHealth>> state_;
  std::vector<std::vector<int>> misses_;
  /// Healthy entries in the front end's row.
  int front_healthy_;
  std::vector<bool> claims_;
  /// Observer liveness last round: a dead observer's row freezes; on
  /// revival it resets to all-healthy and re-learns.
  std::vector<bool> observer_alive_;
  std::uint64_t stepdowns_ = 0;
  std::uint64_t split_brain_rounds_ = 0;
};

}  // namespace wsched::net
