#include "core/policy.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "core/rsrc.hpp"
#include "obs/counters.hpp"

namespace wsched::core {
namespace {

int random_in(Rng& rng, int count) {
  return static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(count)));
}

/// Scores each candidate with the same cost function the pick used, so the
/// decision log explains the choice. Fills a reusable (node, cost) buffer;
/// the "node:score|..." string is only formatted at CSV-write time.
void score_candidates(double w, const std::vector<int>& candidates,
                      const LoadVec& load,
                      const std::vector<sim::NodeParams>* speeds,
                      std::vector<obs::ScoredCandidate>& out) {
  out.clear();
  for (const int node : candidates) {
    const LoadInfo info = load[static_cast<std::size_t>(node)];
    const double cost =
        speeds == nullptr
            ? rsrc_cost(w, info)
            : rsrc_cost_heterogeneous(
                  w, info,
                  (*speeds)[static_cast<std::size_t>(node)].cpu_speed,
                  (*speeds)[static_cast<std::size_t>(node)].disk_speed);
    out.push_back({node, cost});
  }
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

/// Copies the declared-healthy subset of `from` into `out`, additionally
/// dropping nodes unreachable from `src` (-1 = the dispatch front end;
/// no-op without the net model).
void filter_healthy(const ClusterView& view, const std::vector<int>& from,
                    std::vector<int>& out, int src = -1) {
  out.clear();
  for (const int node : from)
    if (view.node_healthy(node) && view.reachable_from(src, node))
      out.push_back(node);
}

/// Uniform pick among the nodes of [0, count) that may take work (all of
/// them when none may), built in the reusable `pool`. An unfiltered pool
/// is the full range, so while every node admits the pool is skipped and
/// the draw is that of a plain uniform pick, bit for bit.
int random_pool_member(const ClusterView& view, int count,
                       std::vector<int>& pool) {
  if (view.all_admit(count)) return random_in(*view.rng, count);
  pool.clear();
  for (int n = 0; n < count; ++n)
    if (view.node_healthy(n)) pool.push_back(n);
  if (pool.empty())
    for (int n = 0; n < count; ++n) pool.push_back(n);
  return pool[static_cast<std::size_t>(
      random_in(*view.rng, static_cast<int>(pool.size())))];
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
  const double* cpu = seen.cpu_idle_data();
  const double* disk = seen.disk_avail_data();
  const auto scaled_cost = [&](std::size_t i) {
    const auto node = static_cast<std::size_t>(candidates[i]);
    const double cost =
        speeds == nullptr
            ? w / cpu[node] + (1.0 - w) / disk[node]
            : w / (cpu[node] * (*speeds)[node].cpu_speed) +
                  (1.0 - w) / (disk[node] * (*speeds)[node].disk_speed);
    return scale[i] * cost;
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
    if (view.fault_aware()) {
      // Switch-based load balancing health-checks its pool: route among
      // declared-healthy nodes (falling back to all live-declared nodes,
      // then node 0 — the cluster holds arrivals during a total outage).
      filter_healthy(view, view.membership->available(), healthy_);
      const std::vector<int>& pool =
          healthy_.empty() ? view.membership->available() : healthy_;
      if (pool.empty()) {
        const Decision decision{0, false, -1.0, 0};
        log_decision(view, decision, request.is_dynamic(), "no-candidates");
        return decision;
      }
      const int node =
          pool[static_cast<std::size_t>(random_in(
              *view.rng, static_cast<int>(pool.size())))];
      const Decision decision{node, false, -1.0, node};
      log_decision(view, decision, request.is_dynamic(), "flat-random");
      return decision;
    }
    // DNS/switch baseline: uniformly random node that may take work,
    // executed where received.
    const int node = random_pool_member(view, view.p, healthy_);
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

  Decision route(const trace::TraceRecord& request,
                 ClusterView& view) override {
    if (view.fault_aware()) return route_fault_aware(request, view);
    const int masters = options_.all_masters ? view.p : view.m;
    if (masters < 1 || masters > view.p)
      throw std::invalid_argument("M/S: bad master count");
    if (view.reservation != nullptr)
      view.reservation->record_arrival(request.is_dynamic());

    // The front end spreads requests uniformly over the masters that may
    // take work.
    const int receiver = random_pool_member(view, masters, masters_);
    if (!request.is_dynamic()) {
      // "Static requests are processed locally at masters."
      const Decision decision{receiver, false, -1.0, receiver};
      log_decision(view, decision, false, "static-local");
      return decision;
    }

    // Dynamic: min-RSRC over slaves plus, reservation permitting, masters.
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

    // Candidates are [first, p), each node gated unless every node admits.
    const int first = masters_allowed ? 0 : masters;
    candidates_.clear();
    if (view.all_admit(view.p)) {
      candidates_.resize(static_cast<std::size_t>(view.p - first));
      std::iota(candidates_.begin(), candidates_.end(), first);
    } else {
      for (int n = first; n < view.p; ++n)
        if (view.node_healthy(n)) candidates_.push_back(n);
    }
    if (candidates_.empty()) {
      // All gates closed at once: fall back to every powered node (every
      // node when there is no block mask to consult).
      for (int n = 0; n < view.p; ++n)
        if (view.blocked == nullptr ||
            (view.blocked->bits(n) & kBlockPoweredDown) == 0)
          candidates_.push_back(n);
    }
    if (candidates_.empty())
      for (int n = 0; n < view.p; ++n) candidates_.push_back(n);

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
      view.reservation->record_dynamic_routing(target < view.m);
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
  /// Failover variant: the same algorithm over the *declared* membership —
  /// masters are whatever nodes currently hold the role (promotions
  /// included), suspected/dead nodes are no candidates. With every node
  /// healthy and the initial roles, this consumes the RNG identically to
  /// the fault-free path, so an enabled-but-quiet fault layer is
  /// bit-identical to a disabled one.
  Decision route_fault_aware(const trace::TraceRecord& request,
                             ClusterView& view) {
    const fault::Membership& mem = *view.membership;
    if (view.reservation != nullptr)
      view.reservation->record_arrival(request.is_dynamic());

    // Receiver pool: healthy masters, then any healthy node (headless
    // cluster with all masters dead), then any live-declared node.
    filter_healthy(view,
                   options_.all_masters ? mem.available() : mem.masters(),
                   masters_);
    if (masters_.empty()) filter_healthy(view, mem.available(), masters_);
    if (masters_.empty()) masters_ = mem.available();
    if (masters_.empty()) {
      const Decision decision{0, false, -1.0, 0};
      log_decision(view, decision, request.is_dynamic(), "no-candidates");
      return decision;
    }
    const int receiver =
        masters_[static_cast<std::size_t>(random_in(
            *view.rng, static_cast<int>(masters_.size())))];
    if (!request.is_dynamic()) {
      const Decision decision{receiver, false, -1.0, receiver};
      log_decision(view, decision, false, "static-local");
      return decision;
    }

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
    if (masters_allowed)
      candidates_.insert(candidates_.end(), masters_.begin(),
                         masters_.end());
    if (!options_.all_masters) {
      filter_healthy(view, mem.slaves(), slaves_, receiver);
      candidates_.insert(candidates_.end(), slaves_.begin(), slaves_.end());
    }
    if (candidates_.empty()) candidates_ = masters_;

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
    const int k = std::min(k_, view.p);
    // Static requests are spread over every node; dynamic requests are
    // pinned to the k dedicated nodes (min-RSRC among them). Under the
    // failover layer, both pools shrink to their declared-healthy
    // subsets (a dedicated pool wiped out entirely falls back to any
    // healthy node).
    if (view.fault_aware()) {
      filter_healthy(view, view.membership->available(), healthy_);
      if (healthy_.empty()) healthy_ = view.membership->available();
      if (healthy_.empty()) {
        const Decision decision{0, false, -1.0, 0};
        log_decision(view, decision, request.is_dynamic(), "no-candidates");
        return decision;
      }
      const int receiver =
          healthy_[static_cast<std::size_t>(random_in(
              *view.rng, static_cast<int>(healthy_.size())))];
      if (!request.is_dynamic()) {
        const Decision decision{receiver, false, -1.0, receiver};
        log_decision(view, decision, false, "static-spread");
        return decision;
      }
      candidates_.clear();
      for (int n = 0; n < k; ++n)
        if (view.node_healthy(n) && view.reachable_from(receiver, n))
          candidates_.push_back(n);
      if (candidates_.empty()) candidates_ = healthy_;
      const double w = view.ctrl_w != nullptr ? *view.ctrl_w
                                              : request.cpu_fraction;
      const LoadVec& seen = view.load_seen_by(receiver);
      const PickOutcome picked = pick_candidate(view, receiver, w,
                                                candidates_, seen, nullptr,
                                                0.30);
      const int target = candidates_[picked.index];
      const Decision decision{target, target != receiver, w, receiver};
      log_decision(view, decision, true,
                   picked.reason != nullptr ? picked.reason
                                            : "min-rsrc-dedicated",
                   &candidates_, &seen, nullptr, picked.stale_s, picked.slow);
      return decision;
    }
    const int receiver = random_pool_member(view, view.p, healthy_);
    if (!request.is_dynamic()) {
      const Decision decision{receiver, false, -1.0, receiver};
      log_decision(view, decision, false, "static-spread");
      return decision;
    }
    candidates_.clear();
    for (int n = 0; n < k; ++n)
      if (view.node_healthy(n)) candidates_.push_back(n);
    if (candidates_.empty())
      for (int n = 0; n < k; ++n) candidates_.push_back(n);
    const double w = view.ctrl_w != nullptr ? *view.ctrl_w
                                            : request.cpu_fraction;
    const LoadVec& seen = view.load_seen_by(receiver);
    const PickOutcome picked = pick_candidate(view, receiver, w, candidates_,
                                              seen, nullptr, 0.30);
    const int target = candidates_[picked.index];
    const Decision decision{target, target != receiver, w, receiver};
    log_decision(view, decision, true,
                 picked.reason != nullptr ? picked.reason
                                          : "min-rsrc-dedicated",
                 &candidates_, &seen, nullptr, picked.stale_s, picked.slow);
    return decision;
  }

  std::string name() const override { return "M/S'"; }

 private:
  int k_;
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
