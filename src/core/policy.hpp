// Dispatch policies: the paper's M/S scheduler and the alternatives it is
// evaluated against (§5.2).
//
//   Flat    — every request to a uniformly random node (the DNS/switch
//             baseline of the analytic model).
//   M/S     — the full optimization: static requests processed at the
//             receiving master; dynamic requests to the min-RSRC node among
//             slaves plus (reservation permitting) masters, using the
//             sampled per-type CPU share `w`.
//   M/S-ns  — no demand sampling: RSRC evaluated with w = 0.5.
//   M/S-nr  — no reservation: masters always candidates for dynamic work.
//   M/S-1   — every node is a master, same algorithm ("a flat architecture
//             with remote CGI").
//   M/S'    — static spread over all p nodes; dynamic pinned to k fixed
//             nodes (the analytic alternative of §3, also runnable here).
//
// Each policy has one route, over the view's fault::Membership: masters
// are whatever nodes hold the role, and a node takes work only while the
// view says it may. With the fault layer off the membership is the static
// split, nodes [0, m) masters and [m, p) slaves; with it on, roles follow
// failover promotions. While every node may take work the pools are used
// unfiltered, which keeps the receiver draw O(1).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/load.hpp"
#include "core/reservation.hpp"
#include "fault/membership.hpp"
#include "net/network.hpp"
#include "net/stale_view.hpp"
#include "obs/decision_log.hpp"
#include "overload/breaker.hpp"
#include "sim/params.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace wsched::core {

/// Why a node may not take work: one bit each in ClusterView::blocked.
/// Declared: the heartbeat detector suspects it or declared it dead.
inline constexpr std::uint8_t kBlockDeclared = 1 << 0;
/// Slow: the latency watchdog flagged it kDegraded and excludes it.
inline constexpr std::uint8_t kBlockSlow = 1 << 1;
/// Powered down: the autoscaler drained it.
inline constexpr std::uint8_t kBlockPoweredDown = 1 << 2;

/// The per-node block mask: kBlock* reason bits per node, plus a count of
/// the nodes with any bit set, so dispatch can skip the per-node gate
/// while nothing is blocked.
class BlockMask {
 public:
  explicit BlockMask(std::size_t nodes) : bits_(nodes, 0) {}

  /// Sets or clears one reason bit of `node`.
  void set(int node, std::uint8_t reason, bool on) {
    std::uint8_t& bits = bits_[static_cast<std::size_t>(node)];
    const bool was = bits != 0;
    bits = static_cast<std::uint8_t>(on ? bits | reason : bits & ~reason);
    blocked_count_ += static_cast<int>(bits != 0) - static_cast<int>(was);
  }
  std::uint8_t bits(int node) const {
    return bits_[static_cast<std::size_t>(node)];
  }
  /// Nodes with any reason bit set.
  int blocked_count() const { return blocked_count_; }

 private:
  std::vector<std::uint8_t> bits_;
  int blocked_count_ = 0;
};

/// Everything a policy may consult when routing one request.
struct ClusterView {
  const LoadVec* load = nullptr;
  /// Per-receiver dispatch knowledge: effective(i) is the load picture as
  /// seen by node i acting as the accepting front end — the shared
  /// periodic sample debited by node i's *own* recent dispatches only
  /// (masters do not see each other's in-flight redirections, just as in
  /// the real system where each master runs its own load manager). Null
  /// in tests or minimal setups; policies then fall back to `load`.
  DispatchFeedback* feedback = nullptr;
  /// Per-node speed factors for the heterogeneous extension; null for a
  /// homogeneous cluster.
  const std::vector<sim::NodeParams>* node_params = nullptr;
  int p = 0;
  ReservationController* reservation = nullptr;  ///< may be null
  Rng* rng = nullptr;
  /// Roles: which nodes are masters and which are available. Never null
  /// when a policy routes. Without failover it is the static split, its
  /// master count following a control-plane retarget; with the fault
  /// layer on, roles follow promotions under churn.
  const fault::Membership* membership = nullptr;
  /// Per-node block mask, the kBlock* reason bits above; a node with any
  /// bit set takes no work. Each layer sets its bit where it hears the
  /// transition, so dispatch excludes *declared* (not ground-truth) dead
  /// nodes, with detection latency. Null in tests or minimal setups.
  const BlockMask* blocked = nullptr;
  /// Per-node circuit breakers (overload layer; null when disabled). An
  /// open breaker fails the same node_healthy gate as the block mask, so
  /// policies need no breaker-specific code. Breakers stay out of the
  /// mask: admits() is consulted lazily, last, because it turns an open
  /// breaker past its cooldown half-open.
  overload::BreakerBank* breakers = nullptr;

  // --- network fault model (all null/zero when the net model is off —
  //     policies then keep the perfect-wire, fresh-oracle behavior) ---
  /// Message-level interconnect; candidate pools exclude nodes the
  /// receiver (or the front end) cannot currently reach.
  const net::Network* network = nullptr;
  /// Per-receiver aged load snapshots from in-band reports. Non-null
  /// replaces the oracle monitor read: RSRC costs are scaled by
  /// 1 + stale_penalty_per_s * age, and when every candidate's report is
  /// older than stale_max_age_s the pick degrades to power-of-two-choices.
  const net::StaleClusterView* stale = nullptr;
  double stale_penalty_per_s = 0.0;
  double stale_max_age_s = 0.0;  ///< 0 disables the two-choices fallback
  /// Count incremented on every two-choices fallback; null = untracked.
  std::uint64_t* stale_fallbacks = nullptr;

  // --- gray-failure defense (src/fault/health.*; all null/false when
  //     slow-health and hedging are off) ---
  /// Per-node RSRC slowness multipliers from the watchdog (1.0 healthy,
  /// 1 + penalty degraded), composed multiplicatively with the staleness
  /// scale. Null when slow health is off. Under the watchdog's exclude
  /// option a degraded node is also blocked (kBlockSlow).
  const std::vector<double>* slow_scale = nullptr;
  /// Hedged dispatch: the primary's node, excluded from the hedge copy's
  /// candidate pool so the copy lands elsewhere. -1 outside hedge routing.
  int exclude_node = -1;
  /// True while routing a hedge copy; stamps the decision log.
  bool hedge_route = false;

  // --- control plane (src/ctrl/; all null/false when ctrl is off —
  //     policies then keep the per-request sampled-w behavior) ---
  /// Live estimated RSRC weight from the online ParamEstimator; non-null
  /// overrides both the per-request sampled w and MsOptions::fixed_w.
  const double* ctrl_w = nullptr;
  /// Stamps the decision log's w_hat / theta_eff columns.
  bool ctrl_active = false;

  // --- observability (all null by default: no effect, no cost beyond one
  //     branch per decision) ---
  /// Structured per-dispatch records (candidate scores, chosen node,
  /// reason); null = off.
  obs::DecisionLog* decisions = nullptr;
  /// Count incremented when the reservation gate excludes the masters
  /// from a dynamic request's candidate set; null = untracked.
  std::uint64_t* reservation_rejections = nullptr;
  /// Dispatch time, stamped on decision records by the cluster.
  Time now = 0;

  /// The load picture receiver `node` routes by. With the net model on
  /// and feedback off this is the receiver's reported (stale) snapshot;
  /// with feedback on, the feedback state itself is refreshed from
  /// delivered reports rather than the monitor, so both paths route on
  /// information that actually crossed the wire.
  const LoadVec& load_seen_by(int node) const {
    if (feedback != nullptr)
      return feedback->effective(static_cast<std::size_t>(node));
    if (stale != nullptr) return stale->seen_by(node);
    return *load;
  }

  /// Whether `node` is reachable from `src` (-1 = the dispatch front
  /// end). Always true without the net model or outside a partition.
  bool reachable_from(int src, int node) const {
    if (network == nullptr) return true;
    return src < 0 ? network->front_end_reaches(node)
                   : network->reachable(src, node);
  }

  /// Whether `node` may take work: not the hedge primary while routing a
  /// hedge copy, no block-mask bit set, and an admitting breaker (an open
  /// breaker past its cooldown turns half-open here, admitting one probe).
  bool node_healthy(int node) const {
    if (node == exclude_node) return false;
    if (blocked != nullptr && blocked->bits(node) != 0) return false;
    return breakers == nullptr || breakers->admits(node, now);
  }

  /// Whether every node may take work and is reachable, without asking
  /// each: no block-mask bit set, no breakers, no hedge exclusion and no
  /// active partition. Policies then take their pools unfiltered.
  bool all_admit() const {
    return (blocked == nullptr || blocked->blocked_count() == 0) &&
           breakers == nullptr && exclude_node < 0 &&
           (network == nullptr || !network->partition_active());
  }
};

/// Routing decision for one request.
struct Decision {
  int node = 0;
  /// True when the executing node differs from the node that accepted the
  /// request, which costs the remote-CGI dispatch latency.
  bool remote = false;
  /// The `w` used in the RSRC pick, or a negative value when the decision
  /// was not RSRC-based (static requests, the flat baseline). The cluster
  /// uses it to debit dispatch feedback from the chosen node.
  double rsrc_w = -1.0;
  /// The node that accepted the request at the front end (and whose
  /// dispatch knowledge should be debited for RSRC decisions).
  int receiver = 0;
};

class Dispatcher {
 public:
  virtual ~Dispatcher() = default;
  virtual Decision route(const trace::TraceRecord& request,
                         ClusterView& view) = 0;
  virtual std::string name() const = 0;
};

/// Knobs for the M/S family.
struct MsOptions {
  bool sample_demand = true;   ///< false = M/S-ns (w fixed at 0.5)
  bool reserve = true;         ///< false = M/S-nr
  bool all_masters = false;    ///< true = M/S-1
  /// Near-tie tolerance for the min-RSRC pick (see pick_min_rsrc).
  double rsrc_tolerance = 0.30;
  /// Ablation: use the naive binary fraction-below-limit reservation gate
  /// instead of the tapered admission (exhibits pulsed herding).
  bool binary_admission = false;
  /// Heterogeneous extension: weight RSRC by per-node CPU/disk speeds when
  /// the cluster provides them (rsrc_cost's speed factors).
  bool speed_aware = false;
  /// Frozen cluster-wide w (>= 0 enables): RSRC uses this instead of the
  /// per-request sampled value — the "offline-sampled once, never
  /// revisited" baseline the ext_ctrl flip drill compares the online
  /// estimator against. A live ClusterView::ctrl_w still takes priority.
  double fixed_w = -1.0;
};

std::unique_ptr<Dispatcher> make_flat();
std::unique_ptr<Dispatcher> make_ms(MsOptions options = {});
/// M/S' with k dedicated dynamic nodes (nodes [0, k)). With every
/// dedicated node gated, dynamic work goes to any node that may take it.
std::unique_ptr<Dispatcher> make_msprime(int k);

/// The named variants used by the experiments.
enum class SchedulerKind { kFlat, kMs, kMsNs, kMsNr, kMs1, kMsPrime };

std::string to_string(SchedulerKind kind);
std::unique_ptr<Dispatcher> make_dispatcher(SchedulerKind kind,
                                            int msprime_k = 1);

}  // namespace wsched::core
