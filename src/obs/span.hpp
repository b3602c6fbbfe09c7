// Request-causal span tracing: where did each request's time go?
//
// A SpanRecorder follows every request from cluster arrival to its
// terminal outcome and maintains two views of the journey:
//
//  1. A *phase ledger*: each request is always in exactly one of eight
//     phases (admission, failover backoff, net RPC, remote hop, CPU
//     wait, CPU service, disk wait, disk service). transition() charges
//     the elapsed time to the phase being left, so the per-phase sums
//     telescope and the closure invariant
//
//         sum over phases == terminal time - arrival time
//
//     holds *exactly* (integer nanoseconds, no rounding) for every
//     terminated request. This is the decomposition the harness exports
//     as span_* columns.
//
//  2. A *span tree*: request root -> per-leg children (rpc / hop /
//     backoff / node visit) -> per-burst grandchildren (cpu / disk
//     slices), plus zero-length annotation notes (retries, paging,
//     RPC retransmits and dedup drops). The worst-K requests per class
//     by stretch are dumped as self-contained JSON trees.
//
// Clamping: a request can terminate (abort, abandon) inside a context
// switch, i.e. before the slice start time its CPU phase was marked at.
// Charges clamp at zero and the terminal time clamps up to the mark, so
// telescoping — and therefore closure — survives: every charge equals
// the mark's forward movement, and the recorded end *is* the final mark.
//
// Storage follows the hot-path conventions (DESIGN.md section 14): one
// POD Req per request indexed directly by the dense job id, sized once
// by reserve(). Span trees are kept only where something can still read
// them: every in-flight request owns a chain in a free-listed SpanNode
// pool, and at terminal() a request's chain is either retained (it is
// among the worst K of its class so far) or returned to the free list;
// an evicted exemplar returns its chain the same way. A recorder built
// with K == 0 keeps the ledger alone and builds no tree. Names are
// static string literals, and all JSON formatting is deferred to write
// time. Every hook is null-guarded at the call site, so a run with spans
// off is byte-identical to one built without them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace wsched::obs {

/// The eight ledger phases. A request is in exactly one at any instant.
enum class SpanPhase : std::uint8_t {
  kAdmission = 0,  ///< front-end admission, incl. shed-retry backoff
  kBackoff,        ///< failover re-dispatch backoff after a node fault
  kNet,            ///< in flight on the interconnect (RPC attempts)
  kHop,            ///< remote-execution hop latency (net model off)
  kCpuWait,        ///< in a node's run queue (context switches included)
  kCpu,            ///< receiving CPU service
  kDiskWait,       ///< in a node's disk queue
  kDisk,           ///< receiving disk service
};

inline constexpr std::size_t kSpanPhaseCount = 8;

const char* to_string(SpanPhase phase);

/// Terminal outcomes, mirroring the overload ledger
/// completed + shed + timeouts + abandoned == submitted.
enum class SpanOutcome : std::uint8_t {
  kInFlight = 0,  ///< not yet terminated (run ended mid-request)
  kCompleted,
  kShed,       ///< admission rejected past the retry cap
  kTimeout,    ///< failover gave up (re-dispatch cap / RPC exhausted)
  kAbandoned,  ///< client abandoned at its deadline
};

const char* to_string(SpanOutcome outcome);

/// One node of a request's span tree. Pool storage: `next` indexes the
/// recorder's pool and chains the spans of one request in creation order
/// (or the free list); `id` and `parent` are request-local ordinals,
/// stable however the pool slots are reused. Notes are zero-length spans
/// carrying an optional value (retry attempt, paged-in page count, ...).
struct SpanNode {
  const char* name = nullptr;  ///< static literal at every call site
  Time start = 0;
  Time end = -1;  ///< -1 while open
  std::uint32_t id = 0;      ///< creation ordinal within the request
  std::uint32_t parent = 0;  ///< parent's ordinal; kNoSpan for the root
  std::uint32_t next = 0;
  std::int32_t pid = 0;  ///< node id, or the cluster pseudo-pid
  std::int64_t value = 0;
};

/// Per-class decomposition aggregate over terminated requests. Sums are
/// in seconds; divide by `count` for means.
struct SpanClassSummary {
  std::uint64_t count = 0;
  double sojourn_s = 0.0;
  double phase_s[kSpanPhaseCount] = {};

  double mean_sojourn_s() const {
    return count == 0 ? 0.0 : sojourn_s / static_cast<double>(count);
  }
  double mean_phase_s(SpanPhase phase) const {
    return count == 0
               ? 0.0
               : phase_s[static_cast<std::size_t>(phase)] /
                     static_cast<double>(count);
  }
};

struct SpanSummary {
  bool enabled = false;
  SpanClassSummary cls[2];  ///< [0] static, [1] dynamic
  /// Requests whose phase sums missed their sojourn — structurally zero
  /// (the ledger telescopes); recomputed in summarize() as a self-check.
  std::uint64_t closure_violations = 0;
};

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoSpan = 0xffffffffu;

  /// `exemplars` is the number of span trees retained per class (the
  /// most write_exemplars() can dump); 0 keeps the phase ledger alone.
  explicit SpanRecorder(int exemplars = 3);

  /// Sizes the ledger for job ids below `requests`, so it never regrows.
  void reserve(std::size_t requests) { reqs_.reserve(requests); }

  // --- lifecycle hooks (called from cluster / node / rpc sites) ---

  /// Request arrival at the front end: opens the root span and starts
  /// the ledger in kAdmission.
  void on_arrival(std::uint64_t job, Time t, bool dynamic, Time demand,
                  int pid);

  /// Refreshes the request's class/demand (a cache hit demotes a dynamic
  /// request to static mid-flight; the final job is authoritative).
  /// Ignored after terminal(), so a request's exemplar rank is final there.
  void on_class(std::uint64_t job, bool dynamic, Time demand);

  /// Request legs. Each closes any open leg/visit/slice spans at `t` and
  /// moves the ledger to the matching phase.
  void begin_net(std::uint64_t job, Time t);       ///< RPC dispatch sent
  void begin_hop(std::uint64_t job, Time t);       ///< net-off remote hop
  void begin_backoff(std::uint64_t job, Time t,
                     bool admission);              ///< retry / failover wait
  void begin_visit(std::uint64_t job, Time t, int pid);  ///< landed on a node

  /// Within a visit: burst state changes. cpu_run/disk_run open a slice
  /// span; cpu_wait/disk_wait close it.
  void cpu_run(std::uint64_t job, Time t);
  void cpu_wait(std::uint64_t job, Time t);
  void disk_run(std::uint64_t job, Time t);
  void disk_wait(std::uint64_t job, Time t);

  /// Zero-length annotation attached to the open leg span (or the root):
  /// "retry", "redispatch", "paging", "rpc-retransmit", "rpc-dup", ...
  void note(std::uint64_t job, const char* name, Time t,
            std::int64_t value = 0);

  /// Terminates the request: charges the ledger remainder, closes every
  /// open span at max(t, mark), records the outcome, and either retains
  /// the span tree (among the worst K of its class so far) or frees it.
  /// Idempotent — later calls for the same job (abandon/completion races)
  /// are ignored, as is every other hook after termination.
  void terminal(std::uint64_t job, SpanOutcome outcome, Time t);

  // --- queries (tests, summary, exemplars) ---

  bool recorded(std::uint64_t job) const {
    return job < reqs_.size() && reqs_[job].arrival >= 0;
  }
  SpanOutcome outcome(std::uint64_t job) const {
    return recorded(job) ? reqs_[job].outcome : SpanOutcome::kInFlight;
  }
  Time phase_total(std::uint64_t job, SpanPhase phase) const {
    return recorded(job)
               ? reqs_[job].phase_ns[static_cast<std::size_t>(phase)]
               : 0;
  }
  /// Terminal time - arrival time; -1 while the request is in flight.
  Time sojourn(std::uint64_t job) const {
    if (!recorded(job) || reqs_[job].end < 0) return -1;
    return reqs_[job].end - reqs_[job].arrival;
  }
  Time arrival(std::uint64_t job) const {
    return recorded(job) ? reqs_[job].arrival : -1;
  }
  std::uint32_t attempts(std::uint64_t job) const {
    return recorded(job) ? reqs_[job].attempts : 0;
  }
  /// Largest job id seen + 1 (ids are dense, so this bounds iteration).
  std::size_t request_capacity() const { return reqs_.size(); }
  /// Spans currently held: in-flight chains plus retained exemplar trees.
  std::size_t span_count() const { return live_spans_; }
  /// Span pool slots ever allocated: the high-water mark of span_count().
  std::size_t span_slots() const { return pool_.size(); }

  /// Folds the ledger into per-class per-phase sums over terminated
  /// requests (in-flight requests are excluded — their decomposition is
  /// not yet closed).
  SpanSummary summarize() const;

  /// Dumps the worst `k` requests per class by stretch (sojourn /
  /// demand, ties broken toward the lower job id) as self-contained
  /// JSON span trees. Deterministic for a given recorded run. Throws
  /// std::invalid_argument if `k` exceeds the construction-time count.
  void write_exemplars(std::ostream& out, int k) const;
  std::string exemplars_str(int k) const;
  /// Convenience: writes to `path`, throwing std::runtime_error on failure.
  void write_exemplars_file(const std::string& path, int k) const;

 private:
  /// Per-request phase ledger. POD, pooled by job id.
  struct Req {
    Time arrival = -1;  ///< -1 == slot never used
    Time end = -1;      ///< -1 == still in flight
    Time mark = 0;      ///< time the current phase was entered
    Time demand = 0;    ///< unloaded service demand (stretch basis)
    Time phase_ns[kSpanPhaseCount] = {};
    SpanPhase cur = SpanPhase::kAdmission;
    SpanOutcome outcome = SpanOutcome::kInFlight;
    bool dynamic = false;
    bool in_visit = false;       ///< a node visit is open (gates bursts)
    std::uint32_t attempts = 0;  ///< node visits (1 == no failover)
    std::uint32_t tree = kNoSpan;  ///< index into trees_, or no tree kept
  };

  /// Span-tree cursors of one kept tree (indices into pool_; kNoSpan
  /// when closed/absent). Live for in-flight and retained requests only.
  struct Tree {
    std::uint32_t root = kNoSpan;
    std::uint32_t leg = kNoSpan;    ///< open rpc / hop / backoff span
    std::uint32_t visit = kNoSpan;  ///< open node-visit span
    std::uint32_t slice = kNoSpan;  ///< open cpu / disk burst span
    std::uint32_t head = kNoSpan;   ///< first span in creation order
    std::uint32_t tail = kNoSpan;   ///< last span (chain append point)
    std::uint32_t size = 0;         ///< spans in the chain
  };

  /// Exemplar candidate: ranked by (stretch desc, job asc) within a class.
  struct Candidate {
    std::uint64_t job = 0;
    double stretch = 0.0;
  };
  static bool ranks_before(const Candidate& a, const Candidate& b) {
    if (a.stretch != b.stretch) return a.stretch > b.stretch;
    return a.job < b.job;
  }

  Req* live(std::uint64_t job);  ///< null if unknown or already terminal
  Req& ensure(std::uint64_t job);
  Tree* tree_of(Req& r) {
    return r.tree == kNoSpan ? nullptr : &trees_[r.tree];
  }
  /// Charges max(0, t - mark) to the current phase and advances the mark
  /// to max(mark, t); every charge equals the mark's movement, so the
  /// phase sums telescope to mark - arrival exactly.
  void charge(Req& r, Time t);
  void set_phase(Req& r, SpanPhase phase, Time t);
  std::uint32_t open_span(Tree& tree, const char* name, Time t, int pid,
                          std::uint32_t parent);
  void close_span(std::uint32_t span, Time t);
  /// Closes slice, visit and leg spans (innermost first) at `t`.
  void close_open_legs(Req& r, Time t);
  /// Offers a terminated request to its class's worst-K set; once the set
  /// is full, the loser (this request or the evicted one) is released.
  void retain(std::uint64_t job, Req& r);
  /// Returns the request's chain to the span free list and its cursor
  /// slot to the tree free list.
  void release(Req& r);

  int retain_ = 0;              ///< trees retained per class (K)
  std::vector<Req> reqs_;       ///< indexed by job id (dense from 1)
  std::vector<Tree> trees_;     ///< cursor slots, free-listed
  std::vector<std::uint32_t> free_trees_;
  std::vector<SpanNode> pool_;  ///< span slots, free-listed via `next`
  std::uint32_t free_span_ = kNoSpan;
  std::size_t live_spans_ = 0;
  /// Per class ([0] static, [1] dynamic): the retained worst K as a heap
  /// whose front is the retained request ranked last (next to evict).
  std::vector<Candidate> kept_[2];
};

}  // namespace wsched::obs
