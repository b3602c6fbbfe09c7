// Structured per-dispatch decision records.
//
// When enabled, every routing decision appends one record: the time, the
// request class, the accepting front end, the chosen node, whether the hop
// was remote, the RSRC weight used, a reason tag, and the candidate set
// with each candidate's RSRC score ("node:score" pairs). The log is what
// turns "the policy regressed" into "at t=4.2s the reservation closed and
// every CGI herded onto slave 7" — diffable across two runs because the
// serialization rides the canonical artifact formatter.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace wsched::obs {

/// One candidate considered by an RSRC pick, with the cost the pick used.
struct ScoredCandidate {
  int node = 0;
  double cost = 0.0;
};

struct DecisionRecord {
  Time at = 0;
  std::uint64_t seq = 0;  ///< insertion order
  bool dynamic = false;
  int receiver = 0;
  int chosen = 0;
  bool remote = false;
  double w = -1.0;  ///< RSRC weight; negative when not RSRC-based
  /// Why this node: "static-local", "min-rsrc", "flat-random",
  /// "cache-hit", "redispatch", "stale-po2", ...
  const char* reason = "";
  /// Age (seconds) of the load snapshot the decision scored against;
  /// negative when the run had fresh oracle information (net model off)
  /// or the decision was not RSRC-based.
  double stale_s = -1.0;
  /// Control plane (src/ctrl/): the live estimated w at decision time and
  /// the effective theta'_2 limit. Negative when the control plane is off
  /// (the columns still serialize, so the schema is stable).
  double w_hat = -1.0;
  double theta_eff = -1.0;
  /// Gray-failure defense: the slow-health multiplier applied to the
  /// chosen node (negative when the watchdog is off or the decision was
  /// not RSRC-based), and whether this decision routed a hedge copy.
  /// Serialized only when enable_gray_columns() was called, keeping the
  /// legacy column schema — and every pinned artifact — byte-stable.
  double slow_penalty = -1.0;
  bool hedged = false;
  /// Span into the log's shared candidate pool (count == 0 when the
  /// decision had no scored candidate set). Scores are kept as raw
  /// (node, cost) pairs on the hot path; the "node:score|..." string is
  /// only formatted at serialization time (DecisionLog::candidates_of).
  std::uint32_t cand_begin = 0;
  std::uint32_t cand_count = 0;
};

class DecisionLog {
 public:
  /// Appends one record with no scored candidate set.
  void record(DecisionRecord record) {
    record.seq = records_.size();
    record.cand_begin = static_cast<std::uint32_t>(pool_.size());
    record.cand_count = 0;
    records_.push_back(record);
  }

  /// Appends one record plus its scored candidates (copied into the flat
  /// pool — no per-record allocation or formatting).
  void record(DecisionRecord record, const ScoredCandidate* cands,
              std::size_t count) {
    record.seq = records_.size();
    record.cand_begin = static_cast<std::uint32_t>(pool_.size());
    record.cand_count = static_cast<std::uint32_t>(count);
    pool_.insert(pool_.end(), cands, cands + count);
    records_.push_back(record);
  }

  const std::vector<DecisionRecord>& records() const { return records_; }
  /// The record's scored candidates, as a (begin, count) span in the pool.
  const ScoredCandidate* candidates_begin(const DecisionRecord& rec) const {
    return pool_.data() + rec.cand_begin;
  }
  /// Formats the record's candidate set as "node:score|node:score|..."
  /// with scores as %.4f (the CSV serialization; empty when the set is
  /// empty).
  std::string candidates_of(const DecisionRecord& rec) const;
  std::size_t size() const { return records_.size(); }
  void clear() {
    records_.clear();
    pool_.clear();
  }

  /// Opts in to the slow_penalty / hedged columns (between theta_eff and
  /// candidates). The cluster calls this when slow health or hedging is
  /// on; legacy runs keep the exact legacy header.
  void enable_gray_columns() { gray_ = true; }
  bool gray_columns() const { return gray_; }

  /// Canonical CSV (via the harness formatter): one row per record with
  /// columns seq, t_s, class, receiver, chosen, remote, w, reason,
  /// stale_s, w_hat, theta_eff, [slow_penalty, hedged,] candidates. An
  /// empty log writes nothing, not even the header.
  void write_csv(std::ostream& out) const;
  /// Throws std::runtime_error if the file cannot be opened or written.
  void write_csv_file(const std::string& path) const;

 private:
  std::vector<DecisionRecord> records_;
  std::vector<ScoredCandidate> pool_;
  bool gray_ = false;
};

}  // namespace wsched::obs
