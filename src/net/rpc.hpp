// At-least-once RPC over the lossy interconnect, with receiver-side dedup.
//
// A call sends one data message and arms a timeout; a lost message (or a
// lost ack) triggers a retransmit after a shared BackoffConfig delay, up
// to max_attempts. The receiver tracks delivered call ids in a DedupFilter
// so a retransmitted CGI dispatch whose first copy already arrived is
// dropped (counted as a duplicate) instead of executed twice — the
// idempotency the paper gets for free by assuming a perfect wire.
//
// When every attempt times out the caller's on_fail fires so the cluster
// can fail the dispatch over — unless a copy was in fact delivered (the
// acks were lost, not the data): then on_fail is suppressed, modeling the
// end-to-end request-id dedup a real system uses to keep "retry" and
// "failover" from both executing. The accounting invariant
// completed + timeouts + shed + abandoned == submitted depends on this.
//
// Nothing on a call's path allocates once the pools are warm: the caller
// passes plain (handler, ctx) pairs, open calls live in free-listed slots,
// and every message and timer carries a pooled {call, id, attempt}
// context (DESIGN.md section 12).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "obs/span.hpp"
#include "overload/backoff.hpp"
#include "sim/engine.hpp"
#include "sim/slot_pool.hpp"
#include "util/rng.hpp"

namespace wsched::net {

/// Receiver-side idempotency filter: claim() returns true exactly once
/// per id. A bitset over the ids, sized to the largest one claimed, so it
/// suits dense sequential ids (Rpc's call ids).
class DedupFilter {
 public:
  bool claim(std::uint64_t id) {
    const std::size_t word = static_cast<std::size_t>(id >> 6);
    if (word >= bits_.size())
      bits_.resize(std::max(word + 1, 2 * bits_.size()), 0);
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((bits_[word] & bit) != 0) return false;
    bits_[word] |= bit;
    ++claimed_;
    return true;
  }
  bool seen(std::uint64_t id) const {
    const std::size_t word = static_cast<std::size_t>(id >> 6);
    return word < bits_.size() &&
           (bits_[word] & (std::uint64_t{1} << (id & 63))) != 0;
  }
  std::size_t size() const { return claimed_; }

 private:
  std::vector<std::uint64_t> bits_;
  std::size_t claimed_ = 0;
};

class Rpc {
 public:
  using Handler = void (*)(void*);

  struct Options {
    Time timeout = 50 * kMillisecond;
    int max_attempts = 3;
    overload::BackoffConfig backoff;
  };

  struct Hooks {
    obs::TraceSink* trace = nullptr;
    obs::SpanRecorder* spans = nullptr;
    int cluster_pid = 0;
  };

  Rpc(sim::Engine& engine, Network& network, Options options,
      std::uint64_t seed);

  void set_hooks(const Hooks& hooks) { hooks_ = hooks; }

  /// Starts one at-least-once call from node `src` to node `dst`. Exactly
  /// one handler runs, with `ctx`: `on_deliver` at the receiver when the
  /// first copy arrives, or `on_fail` when every attempt timed out and no
  /// copy was delivered. The handlers must not be null. Returns the call
  /// id (sequential from 1). `tag` ties the call to a request for span
  /// attribution (0 = untagged): retransmits and dedup drops become notes
  /// on that request's span tree.
  std::uint64_t call(int src, int dst, Handler on_deliver, Handler on_fail,
                     void* ctx, std::uint64_t tag = 0);

  std::uint64_t calls() const { return calls_started_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::size_t open_calls() const { return calls_.in_use(); }
  const DedupFilter& dedup() const { return dedup_; }

 private:
  /// An open call. Its slot is recycled once the call is acked or given
  /// up; `id` 0 marks a free slot.
  struct Call {
    std::uint64_t id = 0;
    int src = 0;
    int dst = 0;
    int attempt = 1;
    bool delivered = false;
    std::uint64_t tag = 0;  ///< owning request id for span attribution
    Handler on_deliver = nullptr;
    Handler on_fail = nullptr;
    void* ctx = nullptr;
  };

  /// Context of one scheduled data copy, ack, timeout or retransmit. The
  /// event is a no-op once its call's slot holds a different id: the call
  /// it was sent for has been acked or given up.
  struct Msg {
    Rpc* rpc = nullptr;
    Call* call = nullptr;
    std::uint64_t id = 0;
    int attempt = 0;
  };

  /// Runs `Method` for `call` after `delay` (a timeout or retransmit).
  template <void (Rpc::*Method)(const Msg&)>
  void after(Time delay, Call* call, int attempt);
  /// Sends one message whose arrival runs `Method` for `call`.
  template <void (Rpc::*Method)(const Msg&)>
  void send(int src, int dst, MsgKind kind, Call* call, int attempt);
  /// fn(ctx) trampoline: returns the context to the pool, then runs
  /// `Method` on a copy of it.
  template <void (Rpc::*Method)(const Msg&)>
  static void on_msg(void* ctx);
  Msg* hold(Call* call, int attempt);
  /// The call is acked or given up: its slot is free for the next call.
  void close(Call* call);

  void transmit(const Msg& m);
  void on_data(const Msg& m);
  void on_ack(const Msg& m);
  void on_timeout(const Msg& m);

  sim::Engine& engine_;
  Network& network_;
  Options options_;
  Rng rng_;
  Hooks hooks_;
  sim::SlotPool<Call> calls_;
  sim::SlotPool<Msg> msgs_;
  DedupFilter dedup_;
  std::uint64_t next_id_ = 1;
  std::uint64_t calls_started_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace wsched::net
