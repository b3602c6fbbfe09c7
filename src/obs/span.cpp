#include "obs/span.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

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

std::uint32_t SpanRecorder::open_span(Req& r, const char* name, Time t,
                                      int pid, std::uint32_t parent) {
  const std::uint32_t idx = static_cast<std::uint32_t>(pool_.size());
  SpanNode node;
  node.name = name;
  node.start = t;
  node.end = -1;
  node.parent = parent;
  node.next = kNoSpan;
  node.pid = pid;
  pool_.push_back(node);
  if (r.tail == kNoSpan) {
    r.head = idx;
  } else {
    pool_[r.tail].next = idx;
  }
  r.tail = idx;
  return idx;
}

void SpanRecorder::close_span(std::uint32_t span, Time t) {
  if (span == kNoSpan) return;
  SpanNode& node = pool_[span];
  node.end = std::max(t, node.start);
}

void SpanRecorder::close_open_legs(Req& r, Time t) {
  close_span(r.slice, t);
  close_span(r.visit, t);
  close_span(r.leg, t);
  r.slice = r.visit = r.leg = kNoSpan;
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
  r.root = open_span(r, "request", t, pid, kNoSpan);
}

void SpanRecorder::on_class(std::uint64_t job, bool dynamic, Time demand) {
  if (job >= reqs_.size()) return;
  Req& r = reqs_[job];
  if (r.arrival < 0) return;
  r.dynamic = dynamic;
  r.demand = demand;
}

void SpanRecorder::begin_net(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr) return;
  close_open_legs(*r, t);
  set_phase(*r, SpanPhase::kNet, t);
  r->leg = open_span(*r, "rpc", t, pool_[r->root].pid, r->root);
}

void SpanRecorder::begin_hop(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr) return;
  close_open_legs(*r, t);
  set_phase(*r, SpanPhase::kHop, t);
  r->leg = open_span(*r, "hop", t, pool_[r->root].pid, r->root);
}

void SpanRecorder::begin_backoff(std::uint64_t job, Time t, bool admission) {
  Req* r = live(job);
  if (r == nullptr) return;
  close_open_legs(*r, t);
  set_phase(*r, admission ? SpanPhase::kAdmission : SpanPhase::kBackoff, t);
  r->leg = open_span(*r, "backoff", t, pool_[r->root].pid, r->root);
}

void SpanRecorder::begin_visit(std::uint64_t job, Time t, int pid) {
  Req* r = live(job);
  if (r == nullptr) return;
  close_open_legs(*r, t);
  set_phase(*r, SpanPhase::kCpuWait, t);
  r->visit = open_span(*r, "visit", t, pid, r->root);
  ++r->attempts;
}

void SpanRecorder::cpu_run(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr || r->visit == kNoSpan) return;
  close_span(r->slice, t);
  set_phase(*r, SpanPhase::kCpu, t);
  r->slice = open_span(*r, "cpu", t, pool_[r->visit].pid, r->visit);
}

void SpanRecorder::cpu_wait(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr || r->visit == kNoSpan) return;
  close_span(r->slice, t);
  r->slice = kNoSpan;
  set_phase(*r, SpanPhase::kCpuWait, t);
}

void SpanRecorder::disk_run(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr || r->visit == kNoSpan) return;
  close_span(r->slice, t);
  set_phase(*r, SpanPhase::kDisk, t);
  r->slice = open_span(*r, "disk", t, pool_[r->visit].pid, r->visit);
}

void SpanRecorder::disk_wait(std::uint64_t job, Time t) {
  Req* r = live(job);
  if (r == nullptr || r->visit == kNoSpan) return;
  close_span(r->slice, t);
  r->slice = kNoSpan;
  set_phase(*r, SpanPhase::kDiskWait, t);
}

void SpanRecorder::note(std::uint64_t job, const char* name, Time t,
                        std::int64_t value) {
  Req* r = live(job);
  if (r == nullptr) return;
  std::uint32_t parent = r->leg != kNoSpan    ? r->leg
                         : r->visit != kNoSpan ? r->visit
                                               : r->root;
  const std::uint32_t idx =
      open_span(*r, name, t, pool_[parent].pid, parent);
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
  close_span(r->root, end);
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

namespace {

/// Exemplar candidate: ranked by (stretch desc, job asc) within a class.
struct Candidate {
  std::uint64_t job = 0;
  double stretch = 0.0;
};

}  // namespace

void SpanRecorder::write_exemplars(std::ostream& out, int k) const {
  const int want = std::max(k, 0);
  // Rank terminated requests per class by stretch = sojourn / demand
  // (the unloaded demand recorded at arrival, refreshed at completion;
  // zero-demand requests rank by raw sojourn). Ties break toward the
  // lower job id, so the selection is deterministic.
  std::vector<Candidate> by_class[2];
  for (std::size_t job = 0; job < reqs_.size(); ++job) {
    const Req& r = reqs_[job];
    if (r.arrival < 0 || r.end < 0) continue;
    const double sojourn = to_seconds(r.end - r.arrival);
    const double basis = r.demand > 0 ? to_seconds(r.demand) : 1.0;
    by_class[r.dynamic ? 1 : 0].push_back(
        {static_cast<std::uint64_t>(job), sojourn / basis});
  }
  for (auto& candidates : by_class) {
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.stretch != b.stretch) return a.stretch > b.stretch;
                return a.job < b.job;
              });
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
  std::vector<std::uint32_t> chain;  // local id -> pool index, ascending
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
      // Renumber this request's chain into local 0-based ids so each
      // exemplar is self-contained. Spans are pooled in creation order, so
      // the chain's pool indices ascend and a parent (created before its
      // children) is found by binary search.
      chain.clear();
      for (std::uint32_t idx = r.head; idx != kNoSpan; idx = pool_[idx].next)
        chain.push_back(idx);
      for (std::size_t local = 0; local < chain.size(); ++local) {
        const SpanNode& node = pool_[chain[local]];
        if (local != 0) buf += ',';
        field("\n      {\"id\": ", static_cast<std::int64_t>(local));
        const std::int64_t parent =
            node.parent == kNoSpan
                ? -1
                : std::lower_bound(chain.begin(), chain.end(), node.parent) -
                      chain.begin();
        field(", \"parent\": ", parent);
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
