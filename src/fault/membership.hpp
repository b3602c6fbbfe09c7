// Cluster membership under churn.
//
// The dispatch convention of the healthy cluster — "nodes [0, m) are
// masters" — stops being true the moment a master dies. Membership tracks
// which nodes currently hold the master role and which are available at
// all, and implements the promotion rule: when a master is declared dead
// and a healthy slave exists, the lowest-id healthy slave is promoted in
// its place, keeping the master pool at the Theorem-1 size whenever
// possible. A recovered ex-master rejoins as a slave (its role moved to
// the promoted node); a master that died with no promotable slave keeps
// its role and resumes it on recovery.
//
// Role changes are driven by *declared* state (the heartbeat detector's dead /
// recovered transitions), not by the actual crash instant — detection
// latency is part of the model.
//
// Every cluster run has one. With the fault layer off it is built without
// failover: nobody is declared dead, the roles stay the static split, and
// only a control-plane retarget moves the master count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace wsched::fault {

class Membership {
 public:
  /// Nodes [0, m) start as masters, the rest as slaves; all start alive.
  /// `failover` says whether roles follow the promotion rule (the fault
  /// layer is on) or stay the static split a retarget may resize.
  Membership(int p, int m, bool failover = true);

  int p() const { return static_cast<int>(master_.size()); }
  bool failover() const { return failover_; }
  /// Healthy node / healthy master counts — the *effective* (p, m) that
  /// the reservation controller should size theta'_2 from.
  int effective_p() const { return static_cast<int>(available_.size()); }
  int effective_m() const { return static_cast<int>(masters_.size()); }

  bool is_master(int node) const {
    return master_[static_cast<std::size_t>(node)];
  }
  bool is_available(int node) const {
    return alive_[static_cast<std::size_t>(node)];
  }

  /// Healthy masters / healthy slaves / all healthy nodes, ascending by id.
  /// With every node healthy these are [0, m), [m, p) and [0, p): the
  /// static convention, which is all a membership without failover holds.
  const std::vector<int>& masters() const { return masters_; }
  const std::vector<int>& slaves() const { return slaves_; }
  const std::vector<int>& available() const { return available_; }

  /// Declares a node dead. If it held the master role and a healthy slave
  /// exists, promotes the lowest-id healthy slave; returns the promoted
  /// node id, or -1 when no promotion happened.
  int mark_dead(int node);

  /// Declares a node recovered; it rejoins with whatever role it holds
  /// (slave after an ex-master's role was handed off, master if it died
  /// with no promotable slave).
  void mark_alive(int node);

  /// Safety gate consulted before moving a dead master's role (the net
  /// model's quorum rule: a majority of live observers must corroborate
  /// the death and the serving side must itself hold quorum). While the
  /// gate refuses, the role stays on the dead node — effective m shrinks —
  /// and retry_promotion() can complete the hand-off later.
  void set_promotion_gate(std::function<bool(int dead_master)> gate) {
    promotion_gate_ = std::move(gate);
  }

  /// Eligibility filter for promotion candidates (e.g. "reachable from
  /// the serving side"); an ineligible slave is skipped as if dead.
  void set_promotion_filter(std::function<bool(int candidate)> filter) {
    promotion_filter_ = std::move(filter);
  }

  /// Retries the promotion deferred for dead master `node` (gate refused
  /// earlier). Returns the promoted node id, or -1 when the node is no
  /// longer a dead role-holder, the gate still refuses, or no eligible
  /// slave exists.
  int retry_promotion(int node);

  /// Resets the roles to the static split with `m` masters: nodes [0, m).
  /// Only without failover, where no node is ever declared dead; under
  /// failover the promotion rule owns the roles and this throws.
  void set_master_count(int m);

  std::uint64_t promotions() const { return promotions_; }

 private:
  void rebuild();
  /// The shared promotion step: moves the role from dead `node` to the
  /// lowest-id eligible healthy slave; -1 when none exists.
  int promote_replacement(int node);

  bool failover_;
  std::function<bool(int)> promotion_gate_;
  std::function<bool(int)> promotion_filter_;
  std::vector<bool> master_;
  std::vector<bool> alive_;
  std::vector<int> masters_;
  std::vector<int> slaves_;
  std::vector<int> available_;
  std::uint64_t promotions_ = 0;
};

}  // namespace wsched::fault
