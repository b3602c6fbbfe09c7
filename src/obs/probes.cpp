#include "obs/probes.hpp"

#include <algorithm>
#include <stdexcept>

#include "harness/artifacts.hpp"

namespace wsched::obs {

ProbeRecorder::ProbeRecorder(Time interval) : interval_(interval) {
  if (interval <= 0)
    throw std::invalid_argument("probes: interval must be positive");
}

void ProbeRecorder::sample(Time now, const std::vector<NodeProbe>& nodes,
                           const ClusterProbe& cluster) {
  if (last_cpu_busy_.empty()) {
    last_cpu_busy_.assign(nodes.size(), 0);
    last_disk_busy_.assign(nodes.size(), 0);
  } else if (last_cpu_busy_.size() != nodes.size()) {
    throw std::invalid_argument("probes: node count changed between rounds");
  }

  const Time window = rounds_ == 0 ? interval_ : now - last_at_;
  const double denom =
      window > 0 ? static_cast<double>(window) : 1.0;

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeProbe& node = nodes[i];
    const int id = static_cast<int>(i);
    const double cpu_busy = static_cast<double>(
        node.cpu_busy - last_cpu_busy_[i]);
    const double disk_busy = static_cast<double>(
        node.disk_busy - last_disk_busy_[i]);
    last_cpu_busy_[i] = node.cpu_busy;
    last_disk_busy_[i] = node.disk_busy;

    samples_.push_back({now, id, "cpu_idle_ratio",
                        std::clamp(1.0 - cpu_busy / denom, 0.0, 1.0)});
    samples_.push_back({now, id, "disk_avail_ratio",
                        std::clamp(1.0 - disk_busy / denom, 0.0, 1.0)});
    samples_.push_back({now, id, "run_queue",
                        static_cast<double>(node.run_queue)});
    samples_.push_back({now, id, "disk_queue",
                        static_cast<double>(node.disk_queue)});
    samples_.push_back({now, id, "mem_used_ratio", node.mem_used_ratio});
    samples_.push_back({now, id, "alive", node.alive ? 1.0 : 0.0});
  }

  samples_.push_back({now, -1, "a_hat", cluster.a_hat});
  samples_.push_back({now, -1, "r_hat", cluster.r_hat});
  samples_.push_back({now, -1, "theta_limit", cluster.theta_limit});
  samples_.push_back({now, -1, "master_fraction", cluster.master_fraction});
  if (cluster.net_active) {
    samples_.push_back({now, -1, "net_sent", cluster.net_sent});
    samples_.push_back({now, -1, "net_lost", cluster.net_lost});
    samples_.push_back({now, -1, "net_rpc_retries", cluster.net_rpc_retries});
    samples_.push_back(
        {now, -1, "net_stale_fallbacks", cluster.net_stale_fallbacks});
    samples_.push_back(
        {now, -1, "net_split_brain_rounds", cluster.net_split_brain_rounds});
    samples_.push_back(
        {now, -1, "net_partition_active", cluster.net_partition_active});
  }
  if (cluster.ctrl_active) {
    samples_.push_back({now, -1, "ctrl_w_hat", cluster.ctrl_w_hat});
    samples_.push_back({now, -1, "ctrl_r_hat", cluster.ctrl_r_hat});
    samples_.push_back(
        {now, -1, "ctrl_theta_target", cluster.ctrl_theta_target});
    samples_.push_back({now, -1, "ctrl_powered", cluster.ctrl_powered});
    samples_.push_back({now, -1, "ctrl_m", cluster.ctrl_m});
  }

  last_at_ = now;
  ++rounds_;
}

void ProbeRecorder::write_csv(std::ostream& out) const {
  if (samples_.empty()) return;
  harness::ChunkedWriter writer(out);
  std::string& buf = writer.buf();
  buf += "t_s,node,metric,value\n";
  for (const ProbeSample& sample : samples_) {
    harness::append_number(buf, to_seconds(sample.at));
    buf += ',';
    harness::append_int(buf, sample.node);
    buf += ',';
    harness::append_csv_field(buf, sample.metric);
    buf += ',';
    harness::append_number(buf, sample.value);
    buf += '\n';
    writer.poll();
  }
}

void ProbeRecorder::write_csv_file(const std::string& path) const {
  harness::write_artifact_file(path, "probe file",
                               [this](std::ostream& out) { write_csv(out); });
}

}  // namespace wsched::obs
