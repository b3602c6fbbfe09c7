#include "core/policy.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "core/rsrc.hpp"
#include "obs/counters.hpp"

namespace wsched::core {
namespace {

/// Uniform pick from a non-empty pool.
int draw(Rng& rng, const std::vector<int>& pool) {
  return pool[static_cast<std::size_t>(rng.uniform_int(pool.size()))];
}

/// Scores each candidate with the same cost function the pick used, so the
/// decision log explains the choice. Fills a reusable (node, cost) buffer;
/// the "node:score|..." string is only formatted at CSV-write time.
void score_candidates(double w, const std::vector<int>& candidates,
                      const LoadVec& load,
                      const std::vector<sim::NodeParams>* speeds,
                      std::vector<obs::ScoredCandidate>& out) {
  out.clear();
  for (const int node : candidates)
    out.push_back({node, rsrc_cost(w, load, node, speeds)});
}

/// Appends one record when the view carries a decision log; `candidates`
/// (with `load`) adds the scored candidate set. `stale_s` is the age of
/// the snapshot the decision scored against (negative = fresh oracle).
/// The early-out keeps all scoring/copy cost off the path when no log is
/// attached (the common case); with one attached, scores are stored as
/// raw pairs in the log's flat pool — no per-dispatch string building.
void log_decision(ClusterView& view, const Decision& decision, bool dynamic,
                  const char* reason,
                  const std::vector<int>* candidates = nullptr,
                  const LoadVec* load = nullptr,
                  const std::vector<sim::NodeParams>* speeds = nullptr,
                  double stale_s = -1.0, double slow_penalty = -1.0) {
  if (view.decisions == nullptr) return;
  obs::DecisionRecord record;
  record.at = view.now;
  record.dynamic = dynamic;
  record.receiver = decision.receiver;
  record.chosen = decision.node;
  record.remote = decision.remote;
  record.w = decision.rsrc_w;
  record.reason = reason;
  record.stale_s = stale_s;
  record.slow_penalty = slow_penalty;
  record.hedged = view.hedge_route;
  if (view.ctrl_active) {
    record.w_hat = view.ctrl_w != nullptr ? *view.ctrl_w : -1.0;
    record.theta_eff = view.reservation != nullptr
                           ? view.reservation->theta_limit()
                           : -1.0;
  }
  if (candidates != nullptr && load != nullptr) {
    static thread_local std::vector<obs::ScoredCandidate> scored;
    score_candidates(decision.rsrc_w, *candidates, *load, speeds, scored);
    view.decisions->record(record, scored.data(), scored.size());
    return;
  }
  view.decisions->record(record);
}

/// Every node declared dead: node 0 takes the request (the cluster holds
/// arrivals during a total outage).
Decision no_candidates(ClusterView& view, const trace::TraceRecord& request) {
  const Decision decision{0, false, -1.0, 0};
  log_decision(view, decision, request.is_dynamic(), "no-candidates");
  return decision;
}

/// The members of `pool` that may take work and that `src` reaches (-1 =
/// the dispatch front end), filtered into `out`. While every node admits
/// this is `pool` itself, uncopied: the receiver draw stays O(1).
const std::vector<int>& admitted(const ClusterView& view,
                                 const std::vector<int>& pool,
                                 std::vector<int>& out, int src = -1) {
  if (view.all_admit()) return pool;
  out.clear();
  for (const int node : pool)
    if (view.node_healthy(node) && view.reachable_from(src, node))
      out.push_back(node);
  return out;
}

/// M/S with nothing left that may take work, the one place where routing
/// still depends on the membership mode: merging the two rules moves
/// pinned artifacts, so it waits for the re-pin (ROADMAP item 2).
///
/// With `receivers` null, every master in `masters` is gated: `out`
/// becomes the receiver pool, and the return says whether those
/// receivers are dynamic candidates too. Otherwise no dynamic candidate
/// is left and `out` becomes the candidate set.
///   Fault layer off: every master receives, gated or not, and none is a
///     candidate; with no candidate left, every powered node is one.
///   Fault layer on: the available nodes that may take work receive, else
///     every available node, and they are candidates; with no candidate
///     left, the receiver pool is the candidate set.
bool all_gated(const ClusterView& view, const std::vector<int>& masters,
               const std::vector<int>* receivers, std::vector<int>& out) {
  const fault::Membership& mem = *view.membership;
  if (mem.failover()) {
    if (receivers != nullptr) {
      out = *receivers;
    } else {
      const std::vector<int>& healthy = admitted(view, mem.available(), out);
      out = healthy.empty() ? mem.available() : healthy;
    }
    return true;
  }
  if (receivers == nullptr) {
    out = masters;
    return false;
  }
  out.clear();
  for (int n = 0; n < mem.p(); ++n)
    if (view.blocked == nullptr ||
        (view.blocked->bits(n) & kBlockPoweredDown) == 0)
      out.push_back(n);
  if (out.empty())
    for (int n = 0; n < mem.p(); ++n) out.push_back(n);
  return true;
}

/// Result of one min-RSRC pick: the index into the candidate vector, an
/// override reason (null keeps the caller's), and the age of the load
/// snapshot used (negative with the fresh oracle).
struct PickOutcome {
  std::size_t index = 0;
  const char* reason = nullptr;
  double stale_s = -1.0;
  /// Slowness multiplier applied to the chosen node (negative when the
  /// slow-health watchdog is off).
  double slow = -1.0;
};

/// The shared dynamic-candidate pick. Without a stale view or slowness
/// scale this is the plain near-tie min-RSRC scan on oracle load. With a
/// stale view, every candidate's cost is penalized by its report age; and
/// when *everything* the receiver knows is older than stale_max_age_s, a
/// full scan would just chase ghosts — the pick degrades to
/// power-of-two-choices (two uniform probes, keep the cheaper), the
/// classic remedy for stale information herding. The slow-health scale
/// (1 + penalty on kDegraded nodes) composes multiplicatively with the
/// staleness factor; with every node healthy it is all-ones, which leaves
/// costs — and therefore the near-tie RNG draws — bit-identical to the
/// plain pick.
PickOutcome pick_candidate(ClusterView& view, int receiver, double w,
                           const std::vector<int>& candidates,
                           const LoadVec& seen,
                           const std::vector<sim::NodeParams>* speeds,
                           double tolerance) {
  const std::vector<double>* slow = view.slow_scale;
  if (view.stale == nullptr && slow == nullptr)
    return {pick_min_rsrc(w, candidates, seen, speeds, *view.rng, tolerance),
            nullptr, -1.0, -1.0};
  static thread_local std::vector<double> scale;
  scale.clear();
  bool all_over_age = view.stale != nullptr && view.stale_max_age_s > 0.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const int node = candidates[i];
    double s = 1.0;
    if (view.stale != nullptr) {
      const double age = view.stale->age_s(receiver, node, view.now);
      s = 1.0 + view.stale_penalty_per_s * age;
      if (age <= view.stale_max_age_s) all_over_age = false;
    }
    if (slow != nullptr) s *= (*slow)[static_cast<std::size_t>(node)];
    scale.push_back(s);
  }
  const auto scaled_cost = [&](std::size_t i) {
    return scale[i] * rsrc_cost(w, seen, candidates[i], speeds);
  };
  std::size_t pick;
  const char* reason = nullptr;
  if (all_over_age && candidates.size() > 1) {
    const auto a = static_cast<std::size_t>(
        view.rng->uniform_int(candidates.size()));
    const auto b = static_cast<std::size_t>(
        view.rng->uniform_int(candidates.size()));
    pick = scaled_cost(a) <= scaled_cost(b) ? a : b;
    reason = "stale-po2";
    obs::bump(view.stale_fallbacks);
  } else {
    pick = pick_min_rsrc(w, candidates, seen, speeds, &scale, *view.rng,
                         tolerance);
  }
  return {pick, reason,
          view.stale != nullptr
              ? view.stale->age_s(receiver, candidates[pick], view.now)
              : -1.0,
          slow != nullptr
              ? (*slow)[static_cast<std::size_t>(candidates[pick])]
              : -1.0};
}

class FlatDispatcher final : public Dispatcher {
 public:
  Decision route(const trace::TraceRecord& request,
                 ClusterView& view) override {
    // DNS/switch baseline, health-checked like a real switch: a uniformly
    // random node that may take work (any available node when none may),
    // executed where received.
    const std::vector<int>& available = view.membership->available();
    const std::vector<int>& healthy = admitted(view, available, healthy_);
    const std::vector<int>& pool = healthy.empty() ? available : healthy;
    if (pool.empty()) return no_candidates(view, request);
    const int node = draw(*view.rng, pool);
    const Decision decision{node, false, -1.0, node};
    log_decision(view, decision, request.is_dynamic(), "flat-random");
    return decision;
  }
  std::string name() const override { return "Flat"; }

 private:
  std::vector<int> healthy_;  // reused across calls
};

class MsDispatcher final : public Dispatcher {
 public:
  explicit MsDispatcher(MsOptions options) : options_(options) {}

  /// The paper's dispatcher over the membership: masters are whatever
  /// nodes hold the role (promotions included), and nodes that may not
  /// take work are no receivers or candidates.
  Decision route(const trace::TraceRecord& request,
                 ClusterView& view) override {
    const fault::Membership& mem = *view.membership;
    if (view.reservation != nullptr)
      view.reservation->record_arrival(request.is_dynamic());

    // The front end spreads requests uniformly over the masters that may
    // take work (every node is a master under M/S-1).
    const std::vector<int>& masters =
        options_.all_masters ? mem.available() : mem.masters();
    const std::vector<int>* receivers = &admitted(view, masters, masters_);
    bool receivers_are_candidates = true;
    if (receivers->empty()) {
      receivers_are_candidates = all_gated(view, masters, nullptr, masters_);
      receivers = &masters_;
    }
    if (receivers->empty()) return no_candidates(view, request);
    const int receiver = draw(*view.rng, *receivers);
    if (!request.is_dynamic()) {
      // "Static requests are processed locally at masters."
      const Decision decision{receiver, false, -1.0, receiver};
      log_decision(view, decision, false, "static-local");
      return decision;
    }

    // Dynamic: min-RSRC over the slaves the receiver reaches plus,
    // reservation permitting, the receiving masters.
    const bool reservation_active =
        options_.reserve && !options_.all_masters &&
        view.reservation != nullptr;
    const bool masters_allowed =
        !reservation_active ||
        (options_.binary_admission
             ? view.reservation->binary_gate_open()
             : view.rng->uniform() <
                   view.reservation->master_admission());
    if (reservation_active && !masters_allowed)
      obs::bump(view.reservation_rejections);

    candidates_.clear();
    if (masters_allowed && receivers_are_candidates)
      candidates_.assign(receivers->begin(), receivers->end());
    if (!options_.all_masters) {
      const std::vector<int>& slaves =
          admitted(view, mem.slaves(), slaves_, receiver);
      candidates_.insert(candidates_.end(), slaves.begin(), slaves.end());
    }
    if (candidates_.empty()) all_gated(view, masters, receivers, candidates_);

    const double w = view.ctrl_w != nullptr
                         ? *view.ctrl_w
                         : (options_.fixed_w >= 0.0
                                ? options_.fixed_w
                                : (options_.sample_demand
                                       ? request.cpu_fraction
                                       : 0.5));
    const std::vector<sim::NodeParams>* speeds =
        options_.speed_aware ? view.node_params : nullptr;
    const LoadVec& seen = view.load_seen_by(receiver);
    const PickOutcome picked = pick_candidate(view, receiver, w, candidates_,
                                              seen, speeds,
                                              options_.rsrc_tolerance);
    const int target = candidates_[picked.index];
    if (view.reservation != nullptr)
      view.reservation->record_dynamic_routing(mem.is_master(target));
    const Decision decision{target, target != receiver, w, receiver};
    log_decision(view, decision, true,
                 picked.reason != nullptr
                     ? picked.reason
                     : (masters_allowed ? "min-rsrc" : "min-rsrc-reserved"),
                 &candidates_, &seen, speeds, picked.stale_s, picked.slow);
    return decision;
  }

  std::string name() const override {
    if (options_.all_masters) return "M/S-1";
    if (!options_.reserve) return "M/S-nr";
    if (!options_.sample_demand) return "M/S-ns";
    return "M/S";
  }

 private:
  MsOptions options_;
  std::vector<int> candidates_;  // reused across calls
  std::vector<int> masters_;
  std::vector<int> slaves_;
};

class MsPrimeDispatcher final : public Dispatcher {
 public:
  explicit MsPrimeDispatcher(int k) : k_(k) {
    if (k < 1) throw std::invalid_argument("M/S': k must be >= 1");
  }

  Decision route(const trace::TraceRecord& request,
                 ClusterView& view) override {
    // Static requests are spread over every node that may take work;
    // dynamic requests are pinned to the k dedicated nodes (min-RSRC among
    // those the receiver reaches), or, with every dedicated node gated, go
    // to any node of the receiver pool.
    const fault::Membership& mem = *view.membership;
    const std::vector<int>& available = mem.available();
    const std::vector<int>& healthy = admitted(view, available, healthy_);
    const std::vector<int>& receivers = healthy.empty() ? available : healthy;
    if (receivers.empty()) return no_candidates(view, request);
    const int receiver = draw(*view.rng, receivers);
    if (!request.is_dynamic()) {
      const Decision decision{receiver, false, -1.0, receiver};
      log_decision(view, decision, false, "static-spread");
      return decision;
    }
    const int k = std::min(k_, mem.p());
    if (dedicated_.size() != static_cast<std::size_t>(k)) {
      dedicated_.resize(static_cast<std::size_t>(k));
      std::iota(dedicated_.begin(), dedicated_.end(), 0);
    }
    const std::vector<int>& pinned =
        admitted(view, dedicated_, candidates_, receiver);
    const std::vector<int>& candidates = pinned.empty() ? receivers : pinned;
    const double w = view.ctrl_w != nullptr ? *view.ctrl_w
                                            : request.cpu_fraction;
    const LoadVec& seen = view.load_seen_by(receiver);
    const PickOutcome picked = pick_candidate(view, receiver, w, candidates,
                                              seen, nullptr, 0.30);
    const int target = candidates[picked.index];
    const Decision decision{target, target != receiver, w, receiver};
    log_decision(view, decision, true,
                 picked.reason != nullptr ? picked.reason
                                          : "min-rsrc-dedicated",
                 &candidates, &seen, nullptr, picked.stale_s, picked.slow);
    return decision;
  }

  std::string name() const override { return "M/S'"; }

 private:
  int k_;
  std::vector<int> dedicated_;  ///< nodes [0, k)
  std::vector<int> candidates_;
  std::vector<int> healthy_;
};

}  // namespace

std::unique_ptr<Dispatcher> make_flat() {
  return std::make_unique<FlatDispatcher>();
}

std::unique_ptr<Dispatcher> make_ms(MsOptions options) {
  return std::make_unique<MsDispatcher>(options);
}

std::unique_ptr<Dispatcher> make_msprime(int k) {
  return std::make_unique<MsPrimeDispatcher>(k);
}

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFlat: return "Flat";
    case SchedulerKind::kMs: return "M/S";
    case SchedulerKind::kMsNs: return "M/S-ns";
    case SchedulerKind::kMsNr: return "M/S-nr";
    case SchedulerKind::kMs1: return "M/S-1";
    case SchedulerKind::kMsPrime: return "M/S'";
  }
  return "?";
}

std::unique_ptr<Dispatcher> make_dispatcher(SchedulerKind kind,
                                            int msprime_k) {
  switch (kind) {
    case SchedulerKind::kFlat:
      return make_flat();
    case SchedulerKind::kMs:
      return make_ms();
    case SchedulerKind::kMsNs:
      return make_ms({.sample_demand = false});
    case SchedulerKind::kMsNr:
      return make_ms({.reserve = false});
    case SchedulerKind::kMs1:
      return make_ms({.all_masters = true});
    case SchedulerKind::kMsPrime:
      return make_msprime(msprime_k);
  }
  throw std::invalid_argument("unknown scheduler kind");
}

}  // namespace wsched::core
