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
// Convention: nodes [0, m) are masters, [m, p) are slaves.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/load.hpp"
#include "core/reservation.hpp"
#include "fault/health.hpp"
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

/// Everything a policy may consult when routing one request.
struct ClusterView {
  const LoadVec* load = nullptr;
  /// Per-receiver dispatch knowledge: entry i is the load picture as seen
  /// by node i acting as the accepting front end — the shared periodic
  /// sample debited by node i's *own* recent dispatches only (masters do
  /// not see each other's in-flight redirections, just as in the real
  /// system where each master runs its own load manager). Null in tests
  /// or minimal setups; policies then fall back to `load`.
  const std::vector<DispatchFeedback>* feedbacks = nullptr;
  /// Per-node speed factors for the heterogeneous extension; null for a
  /// homogeneous cluster.
  const std::vector<sim::NodeParams>* node_params = nullptr;
  int p = 0;
  int m = 0;
  ReservationController* reservation = nullptr;  ///< may be null
  Rng* rng = nullptr;
  /// Failover layer (null when fault injection is off — policies then use
  /// the static "nodes [0, m) are masters, everyone is up" convention).
  /// `membership` carries roles under churn (promotions included);
  /// `health` carries the *declared* per-node state — dispatch excludes
  /// suspected and dead nodes, with detection latency, rather than
  /// consulting ground truth.
  const fault::Membership* membership = nullptr;
  const std::vector<fault::NodeHealth>* health = nullptr;
  /// Per-node circuit breakers (overload layer; null when disabled). An
  /// open breaker removes the node from candidate pools through the same
  /// node_healthy gate the failover layer uses, so policies need no
  /// breaker-specific code.
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
  /// Latency-watchdog states: kDegraded marks a limping node that still
  /// answers heartbeats. Null when slow health is off.
  const std::vector<fault::NodeHealth>* slow_health = nullptr;
  /// Per-node RSRC slowness multipliers from the watchdog (1.0 healthy,
  /// 1 + penalty degraded), composed multiplicatively with the staleness
  /// scale. Null when slow health is off.
  const std::vector<double>* slow_scale = nullptr;
  /// Hard form: kDegraded nodes leave candidate pools entirely (through
  /// the same node_healthy gate breakers use).
  bool slow_exclude = false;
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
  /// Autoscaler power state: entry != 0 means the node is powered. A
  /// powered-down node leaves candidate pools through the same
  /// node_healthy gate the failover layer uses.
  const std::vector<char>* powered = nullptr;
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
    if (feedbacks != nullptr)
      return (*feedbacks)[static_cast<std::size_t>(node)].effective();
    if (stale != nullptr) return stale->seen_by(node);
    return *load;
  }

  bool fault_aware() const { return membership != nullptr; }

  /// Whether `node` is reachable from `src` (-1 = the dispatch front
  /// end). Always true without the net model or outside a partition.
  bool reachable_from(int src, int node) const {
    if (network == nullptr) return true;
    return src < 0 ? network->front_end_reaches(node)
                   : network->reachable(src, node);
  }

  /// Whether receiver pools must be built from node_healthy-filtered
  /// candidates instead of the plain [0, n) range. An untripped breaker
  /// bank / fully-powered cluster yields the full range either way, so
  /// the RNG draw is unchanged when the gate first turns on.
  bool pool_gated() const {
    return breakers != nullptr || powered != nullptr ||
           exclude_node >= 0 || (slow_exclude && slow_health != nullptr);
  }

  /// Declared-healthy check; always true without the failover layer. An
  /// open circuit breaker also fails it (and an open breaker past its
  /// cooldown transitions to half-open here, admitting one probe), as
  /// does a powered-down node (autoscaler), a latency-degraded node under
  /// slow_exclude, and the hedge primary while routing a hedge copy.
  bool node_healthy(int node) const {
    if (node == exclude_node) return false;
    if (powered != nullptr &&
        !(*powered)[static_cast<std::size_t>(node)])
      return false;
    if (health != nullptr &&
        (*health)[static_cast<std::size_t>(node)] !=
            fault::NodeHealth::kHealthy)
      return false;
    if (slow_exclude && slow_health != nullptr &&
        (*slow_health)[static_cast<std::size_t>(node)] ==
            fault::NodeHealth::kDegraded)
      return false;
    return breakers == nullptr || breakers->admits(node, now);
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
  /// the cluster provides them (rsrc_cost_heterogeneous).
  bool speed_aware = false;
  /// Frozen cluster-wide w (>= 0 enables): RSRC uses this instead of the
  /// per-request sampled value — the "offline-sampled once, never
  /// revisited" baseline the ext_ctrl flip drill compares the online
  /// estimator against. A live ClusterView::ctrl_w still takes priority.
  double fixed_w = -1.0;
};

std::unique_ptr<Dispatcher> make_flat();
std::unique_ptr<Dispatcher> make_ms(MsOptions options = {});
/// M/S' with k dedicated dynamic nodes (nodes [0, k)).
std::unique_ptr<Dispatcher> make_msprime(int k);

/// The named variants used by the experiments.
enum class SchedulerKind { kFlat, kMs, kMsNs, kMsNr, kMs1, kMsPrime };

std::string to_string(SchedulerKind kind);
std::unique_ptr<Dispatcher> make_dispatcher(SchedulerKind kind,
                                            int msprime_k = 1);

}  // namespace wsched::core
