#include "net/rpc.hpp"

#include <utility>

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

std::uint64_t Rpc::call(int src, int dst, std::function<void()> on_deliver,
                        std::function<void()> on_fail, std::uint64_t tag) {
  const std::uint64_t id = next_id_++;
  ++calls_started_;
  Call call;
  call.src = src;
  call.dst = dst;
  call.tag = tag;
  call.on_deliver = std::move(on_deliver);
  call.on_fail = std::move(on_fail);
  calls_.emplace(id, std::move(call));
  transmit(id, 1);
  return id;
}

void Rpc::transmit(std::uint64_t id, int attempt) {
  const auto it = calls_.find(id);
  if (it == calls_.end()) return;  // acked or given up while backing off
  const Call& call = it->second;
  network_.send(call.src, call.dst, MsgKind::kData,
                [this, id] { on_data(id); });
  engine_.schedule_after(options_.timeout,
                         [this, id, attempt] { on_timeout(id, attempt); });
}

void Rpc::on_data(std::uint64_t id) {
  if (!dedup_.claim(id)) {
    // A copy already executed here; drop this one and just re-ack so the
    // sender can stop retransmitting.
    ++duplicates_;
    const auto it = calls_.find(id);
    if (it != calls_.end()) {
      if (hooks_.spans != nullptr && it->second.tag != 0)
        hooks_.spans->note(it->second.tag, "rpc-dup", engine_.now());
      if (hooks_.trace != nullptr)
        hooks_.trace->instant(obs::Category::kNet, "rpc-dup",
                              hooks_.cluster_pid, obs::kLaneNet, engine_.now(),
                              {{"call", id}});
      network_.send(it->second.dst, it->second.src, MsgKind::kControl,
                    [this, id] { on_ack(id); });
    }
    return;
  }
  const auto it = calls_.find(id);
  if (it == calls_.end()) return;  // sender already gave up; nothing to run
  Call& call = it->second;
  call.delivered = true;
  network_.send(call.dst, call.src, MsgKind::kControl,
                [this, id] { on_ack(id); });
  // The callback may reenter the Rpc (failover re-dispatch), invalidating
  // iterators — copy it out and touch no state afterwards.
  const std::function<void()> deliver = call.on_deliver;
  if (deliver) deliver();
}

void Rpc::on_ack(std::uint64_t id) { calls_.erase(id); }

void Rpc::on_timeout(std::uint64_t id, int attempt) {
  const auto it = calls_.find(id);
  if (it == calls_.end()) return;  // completed in the meantime
  Call& call = it->second;
  if (attempt != call.attempt) return;  // stale timeout of an older attempt
  if (call.attempt < options_.max_attempts) {
    call.attempt += 1;
    ++retries_;
    if (hooks_.spans != nullptr && call.tag != 0)
      hooks_.spans->note(call.tag, "rpc-retransmit", engine_.now(),
                         static_cast<std::uint64_t>(call.attempt));
    if (hooks_.trace != nullptr)
      hooks_.trace->instant(obs::Category::kNet, "rpc-retry",
                            hooks_.cluster_pid, obs::kLaneNet, engine_.now(),
                            {{"call", id}, {"attempt", call.attempt}});
    const Time delay =
        overload::backoff_delay(options_.backoff, attempt, &rng_);
    const int next_attempt = call.attempt;
    engine_.schedule_after(
        delay, [this, id, next_attempt] { transmit(id, next_attempt); });
    return;
  }
  // Out of attempts. Only a call whose data never arrived anywhere fails
  // over; a delivered-but-unacked call already executed.
  const bool delivered = call.delivered;
  const std::function<void()> fail = call.on_fail;
  calls_.erase(it);
  if (delivered) return;
  ++failures_;
  if (hooks_.trace != nullptr)
    hooks_.trace->instant(obs::Category::kNet, "rpc-fail", hooks_.cluster_pid,
                          obs::kLaneNet, engine_.now(), {{"call", id}});
  if (fail) fail();
}

}  // namespace wsched::net
