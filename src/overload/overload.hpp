// Overload-control subsystem: request deadlines with client abandonment,
// admission control / load shedding, per-node circuit breakers, and a
// cluster saturation detector that flips masters into a degraded
// static-only mode.
//
// The controller is the cluster's single point of contact: ClusterSim
// instantiates one when any overload feature is enabled (OverloadConfig::
// any()), feeds it dispatch/completion/failure events, and asks it for
// admission verdicts. With every knob at its disabled default the
// subsystem is not constructed at all and the run is bit-identical to one
// without it; an enabled-but-never-triggered configuration consumes no RNG
// draws from the shared streams (the controller owns its own).
//
// Deadline semantics: the client abandons a request `deadline` after its
// cluster arrival — wherever it is. A job abandoned on a node is aborted
// (freed from the run/disk queues, partial work charged pro rata); one
// abandoned while waiting (dispatch hop, retry backoff) is dropped when
// its pending event fires. Abandonments are terminal and counted
// separately from fault-layer timeouts.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "overload/admission.hpp"
#include "overload/backoff.hpp"
#include "overload/breaker.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace wsched::overload {

struct DeadlineConfig {
  /// Client patience per request class, in seconds; 0 disables the class.
  double static_s = 0.0;
  double dynamic_s = 0.0;

  bool any() const { return static_s > 0.0 || dynamic_s > 0.0; }
};

struct OverloadConfig {
  DeadlineConfig deadline;
  AdmissionConfig admission;
  BreakerConfig breaker;
  SaturationConfig saturation;
  /// Client retries of shed requests before the request counts as shed
  /// for good.
  int max_retries = 3;
  BackoffConfig retry_backoff;
  /// Sampling period of the queue/utilization signals driving admission,
  /// queue-trip breakers and the saturation detector.
  double signal_period_s = 0.1;

  /// True when any feature is on (the cluster instantiates the controller
  /// only then).
  bool any() const {
    return deadline.any() || admission.policy != AdmissionPolicy::kNone ||
           breaker.enabled || saturation.enabled;
  }
};

/// Observability surface the controller reports through; the sink may be
/// null (see obs/observer.hpp's null-safe conventions).
struct OverloadHooks {
  obs::TraceSink* trace = nullptr;
  int cluster_pid = 0;
};

class OverloadController {
 public:
  OverloadController(sim::Engine& engine, std::vector<sim::Node*> nodes,
                     const OverloadConfig& config, std::uint64_t seed);

  void set_hooks(const OverloadHooks& hooks) { hooks_ = hooks; }
  /// Saturation-mode transitions (true = degraded); the cluster clamps the
  /// reservation here.
  void set_on_degraded(std::function<void(bool)> fn) {
    on_degraded_ = std::move(fn);
  }
  /// A tracked job was abandoned (terminal); the cluster settles its
  /// completion accounting here.
  void set_on_abandon(std::function<void(std::uint64_t)> fn) {
    on_abandon_ = std::move(fn);
  }

  /// Schedules the periodic signal tick; call once before the run.
  void start();

  // --- admission ---

  /// Shed verdict for an arriving (or retrying) request: null admits, a
  /// non-null reason tag ("shed-queue" / "shed-util" / "shed-stretch")
  /// sheds. Draws from the controller's own RNG stream only when the
  /// policy probability is strictly between 0 and 1.
  const char* shed_reason(bool dynamic);

  // --- deadlines / abandonment ---

  Time deadline_for(bool dynamic) const;
  /// Starts the abandonment clock for a job (no-op for a class without a
  /// deadline). Call once, at first admission to the cluster.
  void arm_deadline(const sim::Job& job);
  /// Tracking updates as the job moves: executing on `node` / in flight
  /// between nodes (hop or backoff wait).
  void note_on_node(std::uint64_t id, int node);
  void note_waiting(std::uint64_t id);
  /// True when the job was abandoned while waiting; the pending event that
  /// held it must drop it (tracking is released here).
  bool consume_abandoned(std::uint64_t id);
  /// Releases tracking on any other terminal path (fault timeout, final
  /// shed) so the deadline event cannot double-settle the job.
  void forget(std::uint64_t id);
  /// Completion: closes tracking, feeds the breaker and (for static
  /// requests) the stretch-target admission signal. Returns false when the
  /// job was already counted abandoned (a zombie completion racing the
  /// deadline event) — the caller must skip its completion accounting.
  bool on_complete(const sim::Job& job, int node, Time completion);

  // --- shed/retry accounting (driven by the cluster's retry loop) ---

  void count_retry(std::uint64_t id);
  void count_shed(std::uint64_t id);
  Rng& retry_rng() { return retry_rng_; }

  // --- breakers ---

  /// Null when breakers are disabled; otherwise wired into ClusterView.
  BreakerBank* breakers() { return breakers_on_ ? &breakers_ : nullptr; }
  void note_dispatch(int node);
  void note_dispatch_failure(int node);

  // --- end-of-run results ---

  std::uint64_t shed_count() const { return shed_; }
  std::uint64_t abandoned_count() const { return abandoned_; }
  std::uint64_t retry_count() const { return retries_; }
  std::uint64_t breaker_trips() const { return breakers_.trips(); }
  bool degraded() const { return saturation_.degraded(); }
  std::uint64_t degraded_entries() const { return saturation_.entries(); }
  Time degraded_time(Time now) const { return saturation_.degraded_time(now); }
  const AdmissionController& admission() const { return admission_; }

 private:
  struct TrackedJob {
    int node = -1;  ///< executing node, or -1 while in flight
    bool abandoned = false;
    bool dynamic = false;
  };

  void on_deadline(std::uint64_t id);
  void on_tick();
  /// Traces a breaker trip that happened since the last call.
  void sync_breaker_trips();

  sim::Engine& engine_;
  std::vector<sim::Node*> nodes_;
  OverloadConfig config_;
  AdmissionController admission_;
  SaturationDetector saturation_;
  BreakerBank breakers_;
  bool breakers_on_;
  Rng admission_rng_;
  Rng retry_rng_;
  OverloadHooks hooks_;
  std::function<void(bool)> on_degraded_;
  std::function<void(std::uint64_t)> on_abandon_;

  std::unordered_map<std::uint64_t, TrackedJob> live_;
  Time last_tick_ = 0;
  Time last_cpu_busy_ = 0;
  std::uint64_t last_trips_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace wsched::overload
