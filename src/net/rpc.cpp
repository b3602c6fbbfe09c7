#include "net/rpc.hpp"

namespace wsched::net {

namespace {
constexpr std::uint64_t kRpcBackoffStream = 0x4E7004;
}  // namespace

Rpc::Rpc(sim::Engine& engine, Network& network, Options options,
         std::uint64_t seed)
    : engine_(engine),
      network_(network),
      options_(options),
      rng_(seed, kRpcBackoffStream) {}

std::uint64_t Rpc::call(int src, int dst, Handler on_deliver, Handler on_fail,
                        void* ctx, std::uint64_t tag) {
  const std::uint64_t id = next_id_++;
  ++calls_started_;
  Call* call = calls_.acquire();
  *call = Call{.id = id,
               .src = src,
               .dst = dst,
               .tag = tag,
               .on_deliver = on_deliver,
               .on_fail = on_fail,
               .ctx = ctx};
  transmit(Msg{this, call, id, 1});
  return id;
}

Rpc::Msg* Rpc::hold(Call* call, int attempt) {
  Msg* m = msgs_.acquire();
  *m = Msg{this, call, call->id, attempt};
  return m;
}

template <void (Rpc::*Method)(const Rpc::Msg&)>
void Rpc::on_msg(void* ctx) {
  auto* held = static_cast<Msg*>(ctx);
  const Msg m = *held;
  m.rpc->msgs_.release(held);
  (m.rpc->*Method)(m);
}

template <void (Rpc::*Method)(const Rpc::Msg&)>
void Rpc::after(Time delay, Call* call, int attempt) {
  engine_.schedule_call_after(delay, &on_msg<Method>, hold(call, attempt));
}

template <void (Rpc::*Method)(const Rpc::Msg&)>
void Rpc::send(int src, int dst, MsgKind kind, Call* call, int attempt) {
  Msg* m = hold(call, attempt);
  if (!network_.send(src, dst, kind, &on_msg<Method>, m)) msgs_.release(m);
}

void Rpc::close(Call* call) {
  call->id = 0;
  calls_.release(call);
}

void Rpc::transmit(const Msg& m) {
  Call* call = m.call;
  if (call->id != m.id) return;  // acked or given up while backing off
  send<&Rpc::on_data>(call->src, call->dst, MsgKind::kData, call, m.attempt);
  after<&Rpc::on_timeout>(options_.timeout, call, m.attempt);
}

void Rpc::on_data(const Msg& m) {
  Call* call = m.call;
  const bool open = call->id == m.id;
  if (!dedup_.claim(m.id)) {
    // A copy already executed here; drop this one and just re-ack so the
    // sender can stop retransmitting.
    ++duplicates_;
    if (open) {
      if (hooks_.spans != nullptr && call->tag != 0)
        hooks_.spans->note(call->tag, "rpc-dup", engine_.now());
      if (hooks_.trace != nullptr)
        hooks_.trace->instant(obs::Category::kNet, "rpc-dup",
                              hooks_.cluster_pid, obs::kLaneNet, engine_.now(),
                              {{"call", m.id}});
      send<&Rpc::on_ack>(call->dst, call->src, MsgKind::kControl, call,
                         m.attempt);
    }
    return;
  }
  if (!open) return;  // sender already gave up; nothing to run
  call->delivered = true;
  send<&Rpc::on_ack>(call->dst, call->src, MsgKind::kControl, call,
                     m.attempt);
  // The handler may reenter the Rpc (failover re-dispatch); the call stays
  // open until its ack, so its slot is not reused underneath.
  call->on_deliver(call->ctx);
}

void Rpc::on_ack(const Msg& m) {
  if (m.call->id == m.id) close(m.call);
}

void Rpc::on_timeout(const Msg& m) {
  Call* call = m.call;
  if (call->id != m.id) return;  // completed in the meantime
  if (m.attempt != call->attempt) return;  // stale timeout of an older attempt
  if (call->attempt < options_.max_attempts) {
    call->attempt += 1;
    ++retries_;
    if (hooks_.spans != nullptr && call->tag != 0)
      hooks_.spans->note(call->tag, "rpc-retransmit", engine_.now(),
                         static_cast<std::uint64_t>(call->attempt));
    if (hooks_.trace != nullptr)
      hooks_.trace->instant(obs::Category::kNet, "rpc-retry",
                            hooks_.cluster_pid, obs::kLaneNet, engine_.now(),
                            {{"call", m.id}, {"attempt", call->attempt}});
    const Time delay =
        overload::backoff_delay(options_.backoff, m.attempt, &rng_);
    after<&Rpc::transmit>(delay, call, call->attempt);
    return;
  }
  // Out of attempts. Only a call whose data never arrived anywhere fails
  // over; a delivered-but-unacked call already executed. The slot is freed
  // first: the handler may start a new call.
  const bool delivered = call->delivered;
  const Handler fail = call->on_fail;
  void* const ctx = call->ctx;
  close(call);
  if (delivered) return;
  ++failures_;
  if (hooks_.trace != nullptr)
    hooks_.trace->instant(obs::Category::kNet, "rpc-fail", hooks_.cluster_pid,
                          obs::kLaneNet, engine_.now(), {{"call", m.id}});
  fail(ctx);
}

}  // namespace wsched::net
