#include "net/network.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace wsched::net {

namespace {

// Dedicated stream ids (must stay distinct from the workload/dispatch
// streams 0xD15 and 0xFA11B0FF so enabling the net model never perturbs
// them).
constexpr std::uint64_t kLatencyStream = 0x4E7001;
constexpr std::uint64_t kLossStream = 0x4E7002;
constexpr int kMaxNodeId = 1 << 20;

int parse_node_id(const std::string& token, std::size_t begin,
                  std::size_t end) {
  if (begin >= end) throw std::invalid_argument("partition: empty node id");
  const char* first = token.data() + begin;
  const char* last = token.data() + end;
  int value = 0;
  // Digits only (from_chars also takes a leading '-'), and small enough
  // that expanding an a-b range stays cheap and cannot overflow.
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (*first == '-' || ec != std::errc{} || ptr != last || value > kMaxNodeId)
    throw std::invalid_argument("partition: bad node id in '" + token + "'");
  return value;
}

std::vector<int> parse_group(const std::string& text) {
  std::vector<int> nodes;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    const std::size_t dash = token.find('-');
    if (dash == std::string::npos) {
      nodes.push_back(parse_node_id(token, 0, token.size()));
    } else {
      const int lo = parse_node_id(token, 0, dash);
      const int hi = parse_node_id(token, dash + 1, token.size());
      if (hi < lo)
        throw std::invalid_argument("partition: bad range '" + token + "'");
      for (int n = lo; n <= hi; ++n) nodes.push_back(n);
    }
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  return nodes;
}

/// One window bound in seconds: the whole token must be a finite number
/// in [0, kMaxSeconds], so from_seconds() cannot overflow.
Time parse_time(const std::string& text, std::size_t begin, std::size_t end) {
  constexpr double kMaxSeconds = 1e9;
  const char* first = text.data() + begin;
  const char* last = text.data() + end;
  double seconds = 0.0;
  const auto [ptr, ec] = std::from_chars(first, last, seconds);
  if (ec != std::errc{} || ptr != last || !std::isfinite(seconds) ||
      seconds < 0.0 || seconds > kMaxSeconds)
    throw std::invalid_argument("partition: bad time in '" + text +
                                "' (need finite seconds in [0, 1e9])");
  return from_seconds(seconds);
}

}  // namespace

PartitionSpec parse_partition_spec(const std::string& text) {
  const std::size_t first = text.find(':');
  const std::size_t second =
      first == std::string::npos ? std::string::npos : text.find(':', first + 1);
  if (first == std::string::npos || second == std::string::npos)
    throw std::invalid_argument("partition: expected t0:t1:groups, got '" +
                                text + "'");
  PartitionSpec spec;
  spec.from = parse_time(text, 0, first);
  spec.until = parse_time(text, first + 1, second);
  if (spec.until <= spec.from)
    throw std::invalid_argument("partition: t1 must exceed t0 in '" + text +
                                "'");
  const std::string groups = text.substr(second + 1);
  std::size_t pos = 0;
  while (pos <= groups.size()) {
    std::size_t bar = groups.find('|', pos);
    if (bar == std::string::npos) bar = groups.size();
    spec.groups.push_back(parse_group(groups.substr(pos, bar - pos)));
    if (bar == groups.size()) break;
    pos = bar + 1;
  }
  if (spec.groups.size() < 2)
    throw std::invalid_argument("partition: need at least two groups in '" +
                                text + "'");
  return spec;
}

Network::Network(sim::Engine& engine, const NetworkParams& params, int nodes,
                 std::uint64_t seed)
    : engine_(engine),
      params_(params),
      nodes_(nodes),
      latency_rng_(seed, kLatencyStream),
      loss_rng_(seed, kLossStream),
      group_(static_cast<std::size_t>(nodes), 0) {
  if (nodes_ <= 0) throw std::invalid_argument("network: need nodes > 0");
  if (params_.loss < 0.0 || params_.loss >= 1.0)
    throw std::invalid_argument("network: loss must be in [0, 1)");
  for (const double seconds :
       {params_.latency_base_s, params_.latency_jitter_s,
        params_.control_latency_s, params_.control_jitter_s}) {
    if (!std::isfinite(seconds) || seconds < 0.0)
      throw std::invalid_argument(
          "network: latency and jitter must be finite and >= 0");
  }
  if (params_.link_spread < 0.0 || params_.link_spread >= 1.0)
    throw std::invalid_argument("network: link_spread must be in [0, 1)");
  for (const PartitionSpec& spec : params_.partitions) {
    if (spec.until <= spec.from)
      throw std::invalid_argument("network: partition window must be ordered");
    if (spec.groups.size() < 2)
      throw std::invalid_argument("network: partition needs >= 2 groups");
    std::vector<bool> seen(static_cast<std::size_t>(nodes_), false);
    for (const std::vector<int>& group : spec.groups) {
      for (const int n : group) {
        if (n < 0 || n >= nodes_)
          throw std::invalid_argument("network: partition node out of range");
        if (seen[static_cast<std::size_t>(n)])
          throw std::invalid_argument("network: node in two partition groups");
        seen[static_cast<std::size_t>(n)] = true;
      }
    }
  }
}

double Network::link_factor(int src, int dst) const {
  if (params_.link_spread <= 0.0) return 1.0;
  // Hash (src, dst) into a stable per-link multiplier; -1 marks the front
  // end. No RNG stream is consumed, so the factor is identical no matter
  // how many messages ran before.
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                     << 32) ^
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
  const double unit =
      static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;  // [0, 1)
  return 1.0 - params_.link_spread + 2.0 * params_.link_spread * unit;
}

Time Network::sample_latency(MsgKind kind, int src, int dst) {
  const double base_s = kind == MsgKind::kData ? params_.latency_base_s
                                               : params_.control_latency_s;
  const double jitter_s = kind == MsgKind::kData ? params_.latency_jitter_s
                                                 : params_.control_jitter_s;
  double latency_s = base_s * link_factor(src, dst);
  if (jitter_s > 0.0) latency_s += latency_rng_.exponential(jitter_s);
  if (params_.reorder > 0.0 && latency_rng_.bernoulli(params_.reorder))
    latency_s += latency_rng_.uniform() * params_.reorder_extra_s;
  return from_seconds(latency_s);
}

bool Network::send(int src, int dst, MsgKind kind, void (*deliver)(void*),
                   void* ctx) {
  ++sent_;
  if (!reachable(src, dst)) {
    ++partition_drops_;
    return false;
  }
  if (params_.loss > 0.0 && loss_rng_.bernoulli(params_.loss)) {
    ++lost_;
    if (hooks_.trace != nullptr)
      hooks_.trace->instant(obs::Category::kNet, "drop", hooks_.cluster_pid,
                            obs::kLaneNet, engine_.now(),
                            {{"src", src}, {"dst", dst}});
    return false;
  }
  const Time latency = sample_latency(kind, src, dst);
  engine_.schedule_call_after(latency, deliver, ctx);
  return true;
}

void Network::apply_partition(const std::vector<int>& group_of) {
  group_ = group_of;
  partition_active_ = true;
  ++partitions_seen_;
  // The front end serves from the largest side (lower group id on ties).
  std::vector<int> sizes;
  for (const int g : group_) {
    if (static_cast<std::size_t>(g) >= sizes.size())
      sizes.resize(static_cast<std::size_t>(g) + 1, 0);
    ++sizes[static_cast<std::size_t>(g)];
  }
  front_group_ = static_cast<int>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  if (hooks_.trace != nullptr)
    hooks_.trace->instant(
        obs::Category::kNet, "partition", hooks_.cluster_pid, obs::kLaneNet,
        engine_.now(),
        {{"groups", static_cast<std::int64_t>(sizes.size())},
         {"front_group", front_group_}});
  if (on_partition_change_) on_partition_change_();
}

void Network::heal_partition() {
  partition_active_ = false;
  front_group_ = 0;
  std::fill(group_.begin(), group_.end(), 0);
  if (hooks_.trace != nullptr)
    hooks_.trace->instant(obs::Category::kNet, "heal", hooks_.cluster_pid,
                          obs::kLaneNet, engine_.now(), {});
  if (on_partition_change_) on_partition_change_();
}

void Network::start() {
  for (const PartitionSpec& spec : params_.partitions) {
    std::vector<int> group_of(static_cast<std::size_t>(nodes_), 0);
    // Unlisted nodes stay in the first group.
    for (std::size_t g = 0; g < spec.groups.size(); ++g)
      for (const int n : spec.groups[g])
        group_of[static_cast<std::size_t>(n)] = static_cast<int>(g);
    engine_.schedule_at(spec.from, [this, group_of = std::move(group_of)] {
      apply_partition(group_of);
    });
    engine_.schedule_at(spec.until, [this] { heal_partition(); });
  }
}

}  // namespace wsched::net
