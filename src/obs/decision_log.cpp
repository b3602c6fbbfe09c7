#include "obs/decision_log.hpp"

#include <memory>
#include <ostream>

#include "harness/artifacts.hpp"

namespace wsched::obs {

namespace {

/// "node:cost|node:cost|..." with costs as %.4f.
void append_candidates(std::string& out, const ScoredCandidate* cands,
                       std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (i > 0) out += '|';
    harness::append_int(out, cands[i].node);
    out += ':';
    harness::append_fixed4(out, cands[i].cost);
  }
}

}  // namespace

DecisionLog::DecisionLog() = default;

DecisionLog::DecisionLog(std::ostream& out)
    : stream_(std::make_unique<harness::ChunkedWriter>(out)) {}

DecisionLog::~DecisionLog() = default;

void DecisionLog::record(DecisionRecord rec, const ScoredCandidate* cands,
                         std::size_t count) {
  rec.seq = size();
  rec.cand_begin = static_cast<std::uint32_t>(pool_.size());
  rec.cand_count = static_cast<std::uint32_t>(count);
  pool_.insert(pool_.end(), cands, cands + count);
  records_.push_back(rec);
  if (stream_ != nullptr &&
      buffered_bytes() >= harness::ChunkedWriter::kChunk)
    spill();
}

std::string DecisionLog::candidates_of(const DecisionRecord& rec) const {
  std::string joined;
  append_candidates(joined, candidates_begin(rec), rec.cand_count);
  return joined;
}

void DecisionLog::format(harness::ChunkedWriter& writer) const {
  if (records_.empty()) return;
  std::string& buf = writer.buf();
  if (spilled_ == 0)
    buf += gray_ ? "seq,t_s,class,receiver,chosen,remote,w,reason,stale_s,"
                   "w_hat,theta_eff,slow_penalty,hedged,candidates\n"
                 : "seq,t_s,class,receiver,chosen,remote,w,reason,stale_s,"
                   "w_hat,theta_eff,candidates\n";
  const auto number = [&buf](double value) {
    harness::append_number(buf, value);
    buf += ',';
  };
  for (const DecisionRecord& record : records_) {
    harness::append_int(buf, record.seq);
    buf += ',';
    number(to_seconds(record.at));
    buf += record.dynamic ? "dynamic," : "static,";
    harness::append_int(buf, record.receiver);
    buf += ',';
    harness::append_int(buf, record.chosen);
    buf += record.remote ? ",1," : ",0,";
    number(record.w);
    harness::append_csv_field(buf, record.reason);
    buf += ',';
    number(record.stale_s);
    number(record.w_hat);
    number(record.theta_eff);
    if (gray_) {
      number(record.slow_penalty);
      buf += record.hedged ? "1," : "0,";
    }
    // "node:cost|..." never holds a comma, quote or newline, so the field
    // needs no CSV quoting.
    append_candidates(buf, candidates_begin(record), record.cand_count);
    buf += '\n';
    writer.poll();
  }
}

void DecisionLog::write_csv(std::ostream& out) const {
  harness::ChunkedWriter writer(out);
  format(writer);
}

void DecisionLog::spill() {
  format(*stream_);
  spilled_ += records_.size();
  records_.clear();
  pool_.clear();
}

void DecisionLog::finish() {
  spill();
  stream_->flush();
}

void DecisionLog::write_csv_file(const std::string& path) const {
  harness::write_artifact_file(path, "decision log",
                               [this](std::ostream& out) { write_csv(out); });
}

}  // namespace wsched::obs
