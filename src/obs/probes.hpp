// Time-series probe recorder: periodic samples of per-node and
// cluster-level state.
//
// The recorder is passive — the cluster drives it from the event engine at
// a configurable interval and passes raw cumulative busy times, queue
// depths and the reservation estimates; the recorder differences the busy
// counters over the window into idle/available ratios and stores samples
// in long format (t_s, node, metric, value; node -1 carries cluster-level
// series). Long format keeps the CSV schema independent of the node count
// so one plotting script serves every run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace wsched::harness {
class ChunkedWriter;
}  // namespace wsched::harness

namespace wsched::obs {

/// Raw per-node readings at one sample instant (cumulative busy times).
struct NodeProbe {
  Time cpu_busy = 0;   ///< cumulative busy CPU time up to the sample
  Time disk_busy = 0;  ///< cumulative busy disk time
  int run_queue = 0;   ///< runnable processes (running one included)
  int disk_queue = 0;  ///< queued + in-flight disk processes
  double mem_used_ratio = 0.0;  ///< used pages / capacity
  bool alive = true;
};

/// Cluster-level readings at one sample instant.
struct ClusterProbe {
  double a_hat = 0.0;
  double r_hat = 0.0;
  double theta_limit = 0.0;
  double master_fraction = 0.0;
  /// Net-model series (emitted only when `net_active` — keeps probe CSVs
  /// of net-off runs byte-identical to pre-net output). Cumulative
  /// counts, differenced by the plotting side if rates are wanted.
  bool net_active = false;
  double net_sent = 0.0;
  double net_lost = 0.0;
  double net_rpc_retries = 0.0;
  double net_stale_fallbacks = 0.0;
  double net_split_brain_rounds = 0.0;
  double net_partition_active = 0.0;
  /// Control-plane series (emitted only when `ctrl_active`, same
  /// byte-identity contract as the net block).
  bool ctrl_active = false;
  double ctrl_w_hat = 0.0;
  double ctrl_r_hat = 0.0;
  double ctrl_theta_target = 0.0;
  double ctrl_powered = 0.0;
  double ctrl_m = 0.0;
};

struct ProbeSample {
  Time at = 0;
  int node = -1;  ///< -1 = cluster-level series
  const char* metric = "";
  double value = 0.0;
};

/// Without a stream the recorder keeps every sample for write_csv(). With
/// one it streams: once a round leaves ChunkedWriter::kChunk bytes of
/// samples buffered it formats them into the stream and drops them, and
/// finish() writes the rest.
class ProbeRecorder {
 public:
  /// `interval` must be positive; the cluster samples at t = k * interval.
  explicit ProbeRecorder(Time interval);
  ProbeRecorder(Time interval, std::ostream& out);
  ~ProbeRecorder();

  Time interval() const { return interval_; }

  /// Records one sampling round. `nodes` must keep the same size from
  /// round to round. Ratios are computed over the window since the
  /// previous round (the first round reports a fully idle window of one
  /// interval starting at t = 0).
  void sample(Time now, const std::vector<NodeProbe>& nodes,
              const ClusterProbe& cluster);

  /// The samples still held in memory: every sample of a recorder without
  /// a stream, the ones not yet streamed otherwise.
  const std::vector<ProbeSample>& samples() const { return samples_; }
  std::size_t rounds() const { return rounds_; }
  /// Memory held by the samples not yet streamed; a streaming recorder
  /// keeps it below ChunkedWriter::kChunk between rounds.
  std::size_t buffered_bytes() const {
    return samples_.size() * sizeof(ProbeSample);
  }

  /// Canonical long-format CSV of a recorder without a stream: t_s, node,
  /// metric, value. A recorder with no samples writes nothing, not even
  /// the header.
  void write_csv(std::ostream& out) const;
  /// Throws std::runtime_error if the file cannot be opened or written.
  void write_csv_file(const std::string& path) const;
  /// A streaming recorder's end of run: writes the samples still buffered
  /// and flushes. Sample nothing after it.
  void finish();

 private:
  /// The one formatting loop: the buffered samples, preceded by the header
  /// when they are the recorder's first.
  void format(harness::ChunkedWriter& writer) const;
  /// Formats the buffered samples into stream_ and drops them.
  void spill();

  Time interval_;
  std::size_t rounds_ = 0;
  Time last_at_ = 0;
  std::vector<Time> last_cpu_busy_;
  std::vector<Time> last_disk_busy_;
  std::vector<ProbeSample> samples_;
  std::unique_ptr<harness::ChunkedWriter> stream_;  ///< null: keep all
  std::size_t spilled_ = 0;  ///< samples already formatted into stream_
};

}  // namespace wsched::obs
