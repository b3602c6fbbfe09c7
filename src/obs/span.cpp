#include "obs/span.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "harness/artifacts.hpp"

namespace wsched::obs {

const char* to_string(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kAdmission: return "admission";
    case SpanPhase::kBackoff: return "backoff";
    case SpanPhase::kNet: return "net";
    case SpanPhase::kHop: return "hop";
    case SpanPhase::kCpuWait: return "cpu_wait";
    case SpanPhase::kCpu: return "cpu";
    case SpanPhase::kDiskWait: return "disk_wait";
    case SpanPhase::kDisk: return "disk";
  }
  return "?";
}

const char* to_string(SpanOutcome outcome) {
  switch (outcome) {
    case SpanOutcome::kInFlight: return "in_flight";
    case SpanOutcome::kCompleted: return "completed";
    case SpanOutcome::kShed: return "shed";
    case SpanOutcome::kTimeout: return "timeout";
    case SpanOutcome::kAbandoned: return "abandoned";
  }
  return "?";
}

SpanRecorder::SpanRecorder(int exemplars) : retain_(std::max(exemplars, 0)) {}

SpanRecorder::Req& SpanRecorder::ensure(std::uint64_t job) {
  if (job >= reqs_.size()) reqs_.resize(job + 1);
  return reqs_[job];
}

SpanRecorder::Req* SpanRecorder::live(std::uint64_t job) {
  if (job >= reqs_.size()) return nullptr;
  Req& r = reqs_[job];
  // Unknown id, or already terminated (e.g. a completion racing a
  // client abandonment): every later hook is a no-op.
  if (r.arrival < 0 || r.end >= 0) return nullptr;
  return &r;
}

void SpanRecorder::charge(Req& r, Time t) {
  if (t > r.mark) {
    r.phase_ns[static_cast<std::size_t>(r.cur)] += t - r.mark;
    r.mark = t;
  }
}

void SpanRecorder::set_phase(Req& r, SpanPhase phase, Time t) {
  charge(r, t);
  r.cur = phase;
}

std::uint32_t SpanRecorder::open_span(Tree& tree, const char* name, Time t,
                                      int pid, std::uint32_t parent) {
  const std::uint32_t parent_id =
      parent == kNoSpan ? kNoSpan : pool_[parent].id;
  std::uint32_t idx = free_span_;
  if (idx != kNoSpan) {
    free_span_ = pool_[idx].next;
  } else {
    idx = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  SpanNode& node = pool_[idx];
  node.name = name;
  node.start = t;
  node.end = -1;
  node.id = tree.size++;
  node.parent = parent_id;
  node.next = kNoSpan;
  node.pid = pid;
  node.value = 0;
  ++live_spans_;
  if (tree.tail == kNoSpan) {
    tree.head = idx;
  } else {
    pool_[tree.tail].next = idx;
  }
  tree.tail = idx;
  return idx;
}

void SpanRecorder::close_span(std::uint32_t span, Time t) {
  if (span == kNoSpan) return;
  SpanNode& node = pool_[span];
  node.end = std::max(t, node.start);
}

void SpanRecorder::close_open_legs(Req& r, Time t) {
  r.in_visit = false;
  Tree* tree = tree_of(r);
  if (tree == nullptr) return;
  close_span(tree->slice, t);
  close_span(tree->visit, t);
  close_span(tree->leg, t);
  tree->slice = tree->visit = tree->leg = kNoSpan;
}

void SpanRecorder::release(Req& r) {
  const Tree& tree = trees_[r.tree];
  pool_[tree.tail].next = free_span_;
  free_span_ = tree.head;
  live_spans_ -= tree.size;
  free_trees_.push_back(r.tree);
  r.tree = kNoSpan;
}

void SpanRecorder::retain(std::uint64_t job, Req& r) {
  // Stretch = sojourn / unloaded demand (zero-demand requests rank by raw
  // sojourn). The order is total, so the kept set equals the top K of a
  // full sort whatever order requests terminate in.
  const double sojourn = to_seconds(r.end - r.arrival);
  const double basis = r.demand > 0 ? to_seconds(r.demand) : 1.0;
  const Candidate candidate{job, sojourn / basis};
  std::vector<Candidate>& kept = kept_[r.dynamic ? 1 : 0];
  if (kept.size() < static_cast<std::size_t>(retain_)) {
    kept.push_back(candidate);
    std::push_heap(kept.begin(), kept.end(), ranks_before);
    return;
  }
  if (!ranks_before(candidate, kept.front())) {
    release(r);
    return;
  }
  std::pop_heap(kept.begin(), kept.end(), ranks_before);
  release(reqs_[kept.back().job]);
  kept.back() = candidate;
  std::push_heap(kept.begin(), kept.end(), ranks_before);
}

void SpanRecorder::on_arrival(std::uint64_t job, Time t, bool dynamic,
                              Time demand, int pid) {
  Req& r = ensure(job);
  if (r.arrival >= 0) return;  // duplicate arrival: impossible, but safe
  r.arrival = t;
  r.mark = t;
  r.cur = SpanPhase::kAdmission;
  r.dynamic = dynamic;
  r.demand = demand;
  if (retain_ == 0) return;
  if (free_trees_.empty()) {
    r.tree = static_cast<std::uint32_t>(trees_.size());
    trees_.emplace_back();
  } else {
    r.tree = free_trees_.back();
    free_trees_.pop_back();
    trees_[r.tree] = Tree{};
  }
  Tree& tree = trees_[r.tree];
  tree.root = open_span(tree, "request", t, pid, kNoSpan);
}

void SpanRecorder::on_class(std::uint64_t job, bool dynamic, Time demand) {
  Req* r = live(job);
  if (r == nullptr) return;
  r->dynamic = dynamic;
  r->demand = demand;
}

void SpanRecorder::begin_net(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr) return;
  close_open_legs(*r, t);
  set_phase(*r, SpanPhase::kNet, t);
  if (Tree* tree = tree_of(*r))
    tree->leg = open_span(*tree, "rpc", t, pool_[tree->root].pid, tree->root);
}

void SpanRecorder::begin_hop(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr) return;
  close_open_legs(*r, t);
  set_phase(*r, SpanPhase::kHop, t);
  if (Tree* tree = tree_of(*r))
    tree->leg = open_span(*tree, "hop", t, pool_[tree->root].pid, tree->root);
}

void SpanRecorder::begin_backoff(std::uint64_t job, Time t, bool admission) {
  Req* r = live(job);
  if (r == nullptr) return;
  close_open_legs(*r, t);
  set_phase(*r, admission ? SpanPhase::kAdmission : SpanPhase::kBackoff, t);
  if (Tree* tree = tree_of(*r))
    tree->leg =
        open_span(*tree, "backoff", t, pool_[tree->root].pid, tree->root);
}

void SpanRecorder::begin_visit(std::uint64_t job, Time t, int pid) {
  Req* r = live(job);
  if (r == nullptr) return;
  close_open_legs(*r, t);
  set_phase(*r, SpanPhase::kCpuWait, t);
  r->in_visit = true;
  ++r->attempts;
  if (Tree* tree = tree_of(*r))
    tree->visit = open_span(*tree, "visit", t, pid, tree->root);
}

void SpanRecorder::cpu_run(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr || !r->in_visit) return;
  set_phase(*r, SpanPhase::kCpu, t);
  if (Tree* tree = tree_of(*r)) {
    close_span(tree->slice, t);
    tree->slice =
        open_span(*tree, "cpu", t, pool_[tree->visit].pid, tree->visit);
  }
}

void SpanRecorder::cpu_wait(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr || !r->in_visit) return;
  if (Tree* tree = tree_of(*r)) {
    close_span(tree->slice, t);
    tree->slice = kNoSpan;
  }
  set_phase(*r, SpanPhase::kCpuWait, t);
}

void SpanRecorder::disk_run(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr || !r->in_visit) return;
  set_phase(*r, SpanPhase::kDisk, t);
  if (Tree* tree = tree_of(*r)) {
    close_span(tree->slice, t);
    tree->slice =
        open_span(*tree, "disk", t, pool_[tree->visit].pid, tree->visit);
  }
}

void SpanRecorder::disk_wait(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr || !r->in_visit) return;
  if (Tree* tree = tree_of(*r)) {
    close_span(tree->slice, t);
    tree->slice = kNoSpan;
  }
  set_phase(*r, SpanPhase::kDiskWait, t);
}

void SpanRecorder::note(std::uint64_t job, const char* name, Time t,
                        std::int64_t value) {
  Req* r = live(job);
  if (r == nullptr) return;
  Tree* tree = tree_of(*r);
  if (tree == nullptr) return;
  const std::uint32_t parent = tree->leg != kNoSpan     ? tree->leg
                               : tree->visit != kNoSpan ? tree->visit
                                                        : tree->root;
  const std::uint32_t idx =
      open_span(*tree, name, t, pool_[parent].pid, parent);
  pool_[idx].end = t;
  pool_[idx].value = value;
}

void SpanRecorder::terminal(std::uint64_t job, SpanOutcome outcome, Time t) {
  Req* r = live(job);
  if (r == nullptr) return;
  charge(*r, t);
  // The mark can sit past `t` when a request dies inside a context
  // switch (the CPU phase was marked at the future slice start); the
  // terminal time clamps up to it so closure and span containment hold.
  const Time end = r->mark;
  r->end = end;
  r->outcome = outcome;
  close_open_legs(*r, end);
  if (Tree* tree = tree_of(*r)) {
    close_span(tree->root, end);
    retain(job, *r);
  }
}

SpanSummary SpanRecorder::summarize() const {
  SpanSummary summary;
  summary.enabled = true;
  for (const Req& r : reqs_) {
    if (r.arrival < 0 || r.end < 0) continue;
    SpanClassSummary& cls = summary.cls[r.dynamic ? 1 : 0];
    ++cls.count;
    cls.sojourn_s += to_seconds(r.end - r.arrival);
    Time sum = 0;
    for (std::size_t i = 0; i < kSpanPhaseCount; ++i) {
      cls.phase_s[i] += to_seconds(r.phase_ns[i]);
      sum += r.phase_ns[i];
    }
    if (sum != r.end - r.arrival) ++summary.closure_violations;
  }
  return summary;
}

void SpanRecorder::write_exemplars(std::ostream& out, int k) const {
  const int want = std::max(k, 0);
  if (want > retain_)
    throw std::invalid_argument(
        "span exemplars: k=" + std::to_string(want) + " exceeds the " +
        std::to_string(retain_) + " trees retained per class");
  // The retained sets hold each class's worst terminated requests; ranked
  // by (stretch desc, job asc), their top `want` is the full sort's.
  std::vector<Candidate> by_class[2];
  for (int cls = 0; cls < 2; ++cls) {
    std::vector<Candidate>& candidates = by_class[cls];
    candidates = kept_[cls];
    std::sort(candidates.begin(), candidates.end(), ranks_before);
    if (candidates.size() > static_cast<std::size_t>(want))
      candidates.resize(static_cast<std::size_t>(want));
  }

  harness::ChunkedWriter writer(out);
  std::string& buf = writer.buf();
  const auto field = [&buf](const char* key, std::int64_t value) {
    buf += key;
    harness::append_int(buf, value);
  };
  field("{\n  \"k\": ", want);
  buf += ",\n  \"exemplars\": [";
  bool first_exemplar = true;
  for (const auto& candidates : by_class) {
    for (const Candidate& candidate : candidates) {
      const Req& r = reqs_[candidate.job];
      if (!first_exemplar) buf += ',';
      first_exemplar = false;
      field("\n    {\"job\": ", static_cast<std::int64_t>(candidate.job));
      buf += ", \"class\": \"";
      buf += r.dynamic ? "dynamic" : "static";
      buf += "\", \"outcome\": \"";
      buf += to_string(r.outcome);
      buf += '"';
      field(", \"attempts\": ", r.attempts);
      field(",\n     \"arrival_ns\": ", r.arrival);
      field(", \"end_ns\": ", r.end);
      field(", \"demand_ns\": ", r.demand);
      buf += ", \"stretch\": ";
      harness::append_general(buf, candidate.stretch);
      buf += ",\n     \"phases_ns\": {";
      for (std::size_t i = 0; i < kSpanPhaseCount; ++i) {
        if (i != 0) buf += ", ";
        buf += '"';
        buf += to_string(static_cast<SpanPhase>(i));
        field("\": ", r.phase_ns[i]);
      }
      buf += "},\n     \"spans\": [";
      // The chain runs in creation order and every span carries its
      // request-local ordinals, so each exemplar is self-contained.
      for (std::uint32_t idx = trees_[r.tree].head; idx != kNoSpan;
           idx = pool_[idx].next) {
        const SpanNode& node = pool_[idx];
        if (node.id != 0) buf += ',';
        field("\n      {\"id\": ", node.id);
        field(", \"parent\": ",
              node.parent == kNoSpan ? -1 : std::int64_t{node.parent});
        buf += ", \"name\": \"";
        if (node.name != nullptr) buf += node.name;
        field("\", \"pid\": ", node.pid);
        field(", \"start_ns\": ", node.start);
        field(", \"end_ns\": ", node.end);
        field(", \"value\": ", node.value);
        buf += '}';
      }
      buf += "\n     ]}";
      writer.poll();
    }
  }
  buf += "\n  ]\n}\n";
}

std::string SpanRecorder::exemplars_str(int k) const {
  std::ostringstream out;
  write_exemplars(out, k);
  return out.str();
}

void SpanRecorder::write_exemplars_file(const std::string& path,
                                        int k) const {
  harness::write_artifact_file(
      path, "span output",
      [this, k](std::ostream& out) { write_exemplars(out, k); });
}

}  // namespace wsched::obs
