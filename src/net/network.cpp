#include "net/network.hpp"

#include <algorithm>
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
constexpr std::uint64_t kChurnStream = 0x4E7003;

int parse_node_id(const std::string& token, std::size_t begin,
                  std::size_t end) {
  if (begin >= end) throw std::invalid_argument("partition: empty node id");
  int value = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const char c = token[i];
    if (c < '0' || c > '9')
      throw std::invalid_argument("partition: bad node id in '" + token + "'");
    value = value * 10 + (c - '0');
  }
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

}  // namespace

PartitionSpec parse_partition_spec(const std::string& text) {
  const std::size_t first = text.find(':');
  const std::size_t second =
      first == std::string::npos ? std::string::npos : text.find(':', first + 1);
  if (first == std::string::npos || second == std::string::npos)
    throw std::invalid_argument("partition: expected t0:t1:groups, got '" +
                                text + "'");
  PartitionSpec spec;
  try {
    spec.from = from_seconds(std::stod(text.substr(0, first)));
    spec.until = from_seconds(std::stod(text.substr(first + 1, second - first - 1)));
  } catch (const std::exception&) {
    throw std::invalid_argument("partition: bad time in '" + text + "'");
  }
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
      churn_rng_(seed, kChurnStream),
      group_(static_cast<std::size_t>(nodes), 0),
      extra_loss_(static_cast<std::size_t>(nodes), 0.0),
      latency_factor_(static_cast<std::size_t>(nodes), 1.0) {
  if (nodes_ <= 0) throw std::invalid_argument("network: need nodes > 0");
  if (params_.loss < 0.0 || params_.loss >= 1.0)
    throw std::invalid_argument("network: loss must be in [0, 1)");
  if (params_.latency_base_s < 0.0 || params_.control_latency_s < 0.0)
    throw std::invalid_argument("network: negative latency");
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
  if (degraded_count_ > 0)
    latency_s *= node_latency_factor(src) * node_latency_factor(dst);
  return from_seconds(latency_s);
}

void Network::set_node_degradation(int node, double extra_loss,
                                   double latency_factor) {
  if (node < 0 || node >= nodes_)
    throw std::invalid_argument("network: degradation node out of range");
  if (extra_loss < 0.0 || extra_loss >= 1.0 || latency_factor <= 0.0)
    throw std::invalid_argument("network: bad degradation values");
  const auto idx = static_cast<std::size_t>(node);
  const bool was = extra_loss_[idx] > 0.0 || latency_factor_[idx] != 1.0;
  const bool now = extra_loss > 0.0 || latency_factor != 1.0;
  extra_loss_[idx] = extra_loss;
  latency_factor_[idx] = latency_factor;
  degraded_count_ += static_cast<int>(now) - static_cast<int>(was);
  if (hooks_.trace != nullptr)
    hooks_.trace->instant(obs::Category::kNet,
                          now ? "net-degrade" : "net-heal",
                          hooks_.cluster_pid, obs::kLaneNet, engine_.now(),
                          {{"node", node},
                           {"extra_loss", extra_loss},
                           {"latency_factor", latency_factor}});
}

bool Network::send(int src, int dst, MsgKind kind,
                   std::function<void()> deliver) {
  ++sent_;
  if (!reachable(src, dst)) {
    ++partition_drops_;
    return false;
  }
  // With no degraded node the base probability is used untouched, keeping
  // the loss stream byte-identical to the pre-hook transport.
  double loss_p = params_.loss;
  if (degraded_count_ > 0) {
    const double a = node_extra_loss(src);
    const double b = node_extra_loss(dst);
    if (a > 0.0) loss_p = 1.0 - (1.0 - loss_p) * (1.0 - a);
    if (b > 0.0) loss_p = 1.0 - (1.0 - loss_p) * (1.0 - b);
  }
  if (loss_p > 0.0 && loss_rng_.bernoulli(loss_p)) {
    ++lost_;
    if (hooks_.trace != nullptr)
      hooks_.trace->instant(obs::Category::kNet, "drop", hooks_.cluster_pid,
                            obs::kLaneNet, engine_.now(),
                            {{"src", src}, {"dst", dst}});
    return false;
  }
  const Time latency = sample_latency(kind, src, dst);
  engine_.schedule_after(latency, [this, deliver = std::move(deliver)] {
    ++delivered_;
    deliver();
  });
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

void Network::schedule_random_churn() {
  const Time gap =
      from_seconds(churn_rng_.exponential(params_.partition_mttf_s));
  engine_.schedule_after(gap, [this] {
    // Split into two random non-empty groups: each node flips a coin,
    // with a deterministic fixup when a side comes up empty.
    std::vector<int> group_of(static_cast<std::size_t>(nodes_), 0);
    int ones = 0;
    for (int n = 0; n < nodes_; ++n) {
      if (churn_rng_.bernoulli(0.5)) {
        group_of[static_cast<std::size_t>(n)] = 1;
        ++ones;
      }
    }
    if (ones == 0) group_of[static_cast<std::size_t>(nodes_ - 1)] = 1;
    if (ones == nodes_) group_of[0] = 0;
    apply_partition(group_of);
    const Time heal =
        from_seconds(churn_rng_.exponential(params_.partition_mttr_s));
    engine_.schedule_after(heal, [this] {
      heal_partition();
      schedule_random_churn();
    });
  });
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
  if (params_.partition_mttf_s > 0.0 && nodes_ >= 2) schedule_random_churn();
}

}  // namespace wsched::net
