#include "spans.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace wsched_perf {

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int32_t> t_stack;
thread_local std::int32_t t_thread = -1;

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::set_adopter(std::int32_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  adopter_ = id;
}

std::int32_t SpanLog::open(const char* name, std::int64_t run) {
  SpanRecord rec;
  rec.name = name;
  rec.run = run;
  std::int32_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (t_thread < 0) t_thread = threads_++;
    rec.thread = t_thread;
    rec.parent = t_stack.empty() ? adopter_ : t_stack.back();
    id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(rec);
  }
  t_stack.push_back(id);
  // Stamped last so the bookkeeping above is not charged to the span.
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].start_ns = start;
  return id;
}

void SpanLog::close(std::int32_t id) {
  const std::int64_t end = now_ns();
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

void SpanLog::write_json(const std::string& path, const std::string& workload,
                         std::uint64_t seed) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"clock\": \"steady_clock ns\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i > 0 ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"thread\": " << s.thread << ", \"run\": " << s.run << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing " + path);
}

Span::Span(const char* name, std::int64_t run) {
  SpanLog& log = SpanLog::instance();
  if (log.enabled()) id_ = log.open(name, run);
}

Span::~Span() {
  if (id_ >= 0) SpanLog::instance().close(id_);
}

}  // namespace wsched_perf
