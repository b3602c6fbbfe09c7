#include "obs/trace.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "harness/artifacts.hpp"

namespace wsched::obs {

const char* to_string(Category category) {
  switch (category) {
    case Category::kRequest: return "request";
    case Category::kDispatch: return "dispatch";
    case Category::kCpu: return "cpu";
    case Category::kDisk: return "disk";
    case Category::kMemory: return "memory";
    case Category::kFault: return "fault";
    case Category::kReservation: return "reservation";
    case Category::kProbe: return "probe";
    case Category::kLog: return "log";
    case Category::kNet: return "net";
    case Category::kCtrl: return "ctrl";
  }
  return "?";
}

ChromeTraceSink::ChromeTraceSink() = default;

ChromeTraceSink::ChromeTraceSink(std::ostream& out)
    : stream_(std::make_unique<harness::ChunkedWriter>(out)) {}

ChromeTraceSink::~ChromeTraceSink() = default;

std::uint32_t ChromeTraceSink::intern(const char* data, std::size_t len) {
  const auto off = static_cast<std::uint32_t>(chars_.size());
  chars_.append(data, len);
  return off;
}

ChromeTraceSink::Event ChromeTraceSink::make(Category category, char phase,
                                             const char* name, int pid,
                                             int tid, Time ts) {
  Event event;
  event.category = category;
  event.phase = phase;
  event.name = name;
  event.pid = pid;
  event.tid = tid;
  event.ts = ts;
  return event;
}

void ChromeTraceSink::push(Event event, const TraceArgs& args) {
  event.arg_begin = static_cast<std::uint32_t>(args_.size());
  event.arg_count = static_cast<std::uint32_t>(args.size());
  for (const TraceArg& arg : args) {
    Arg packed;
    packed.key = arg.key;
    if (arg.text.empty()) {
      packed.num = arg.num;
    } else {
      packed.text_off = intern(arg.text.data(), arg.text.size());
      packed.text_len = static_cast<std::uint32_t>(arg.text.size());
    }
    args_.push_back(packed);
  }
  commit(event);
}

void ChromeTraceSink::push(Event event, const Arg& arg) {
  event.arg_begin = static_cast<std::uint32_t>(args_.size());
  event.arg_count = 1;
  args_.push_back(arg);
  commit(event);
}

void ChromeTraceSink::commit(const Event& event) {
  ++per_category_[static_cast<std::size_t>(event.category)];
  if (event.name != nullptr) {
    recent_names_[recent_next_ % kRecent] = event.name;
    ++recent_next_;
  }
  events_.push_back(event);
  if (stream_ != nullptr && buffered_bytes() >= harness::ChunkedWriter::kChunk)
    spill();
}

void ChromeTraceSink::spill() {
  format(*stream_);
  spilled_ += events_.size();
  events_.clear();
  args_.clear();
  chars_.clear();
}

void ChromeTraceSink::span(Category category, const char* name, int pid,
                           int tid, Time start, Time dur, TraceArgs args) {
  Event event = make(category, 'X', name, pid, tid, start);
  event.dur = dur;
  push(event, args);
}

void ChromeTraceSink::instant(Category category, const char* name, int pid,
                              int tid, Time t, TraceArgs args) {
  push(make(category, 'i', name, pid, tid, t), args);
}

void ChromeTraceSink::counter(Category category, const char* name, int pid,
                              Time t, double value) {
  Arg packed;
  packed.key = "value";
  packed.num = value;
  push(make(category, 'C', name, pid, 0, t), packed);
}

void ChromeTraceSink::async_begin(Category category, const char* name,
                                  int pid, std::uint64_t id, Time t,
                                  TraceArgs args) {
  Event event = make(category, 'b', name, pid, 0, t);
  event.id = id;
  push(event, args);
}

void ChromeTraceSink::async_end(Category category, const char* name, int pid,
                                std::uint64_t id, Time t, TraceArgs args) {
  Event event = make(category, 'e', name, pid, 0, t);
  event.id = id;
  push(event, args);
}

void ChromeTraceSink::flow(Category category, char phase, const char* name,
                           int pid, int tid, Time t, std::uint64_t id) {
  Event event = make(category, phase, name, pid, tid, t);
  event.id = id;
  push(event, TraceArgs{});
}

void ChromeTraceSink::name_process(int pid, const std::string& name) {
  Arg packed;
  packed.key = "name";
  packed.text_off = intern(name.data(), name.size());
  packed.text_len = static_cast<std::uint32_t>(name.size());
  push(make(Category::kLog, 'M', "process_name", pid, 0, 0), packed);
}

void ChromeTraceSink::name_thread(int pid, int tid, const std::string& name) {
  Arg packed;
  packed.key = "name";
  packed.text_off = intern(name.data(), name.size());
  packed.text_len = static_cast<std::uint32_t>(name.size());
  push(make(Category::kLog, 'M', "thread_name", pid, tid, 0), packed);
}

std::string ChromeTraceSink::recent_summary() const {
  std::ostringstream out;
  out << "trace events by category:";
  for (std::size_t i = 0; i < kCategoryCount; ++i)
    if (per_category_[i] > 0)
      out << ' ' << to_string(static_cast<Category>(i)) << '='
          << per_category_[i];
  const std::size_t count = recent_next_ < kRecent ? recent_next_ : kRecent;
  if (count > 0) {
    out << "; last events:";
    // Oldest first within the ring.
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t idx = (recent_next_ - count + i) % kRecent;
      out << ' ' << recent_names_[idx];
    }
  }
  return out.str();
}

namespace {

/// Simulator Time (integral ns) as Chrome microseconds. Chrome ts values
/// are conventionally doubles; three decimals keep full ns fidelity.
void append_us(std::string& out, Time t) {
  harness::append_int(out, t / 1000);
  const Time frac = t % 1000;
  const char digits[] = {'.', static_cast<char>('0' + frac / 100),
                         static_cast<char>('0' + (frac / 10) % 10),
                         static_cast<char>('0' + frac % 10)};
  out.append(digits, sizeof digits);
}

}  // namespace

void ChromeTraceSink::format(harness::ChunkedWriter& writer) const {
  std::string& buf = writer.buf();
  if (spilled_ == 0) buf += "{\"traceEvents\":[\n";
  bool first = spilled_ == 0;
  for (const Event& event : events_) {
    if (!first) buf += ",\n";
    first = false;
    // Sinks accept arbitrary const char* names; a nullptr (skipped by the
    // recent-names ring too) serializes as an empty name, not UB.
    buf += "{\"name\":\"";
    if (event.name != nullptr) harness::append_json_escaped(buf, event.name);
    buf += "\",\"cat\":\"";
    buf += to_string(event.category);
    buf += "\",\"ph\":\"";
    buf += event.phase;
    buf += "\",\"pid\":";
    harness::append_int(buf, event.pid);
    buf += ",\"tid\":";
    harness::append_int(buf, event.tid);
    buf += ",\"ts\":";
    append_us(buf, event.ts);
    if (event.phase == 'X') {
      buf += ",\"dur\":";
      append_us(buf, event.dur);
    }
    if (event.phase == 'b' || event.phase == 'e' || event.phase == 's' ||
        event.phase == 't' || event.phase == 'f') {
      buf += ",\"id\":\"0x";
      harness::append_int(buf, event.id, 16);
      buf += '"';
    }
    // A finish flow binds to its enclosing slice so the arrow lands on
    // the event that terminated the request.
    if (event.phase == 'f') buf += ",\"bp\":\"e\"";
    if (event.phase == 'i') buf += ",\"s\":\"t\"";
    if (event.arg_count > 0) {
      buf += ",\"args\":{";
      for (std::uint32_t i = 0; i < event.arg_count; ++i) {
        if (i > 0) buf += ',';
        const Arg& arg = args_[event.arg_begin + i];
        buf += '"';
        harness::append_json_escaped(buf, arg.key);
        buf += "\":";
        if (arg.text_len == 0) {
          harness::append_number(buf, arg.num);
        } else {
          buf += '"';
          harness::append_json_escaped(
              buf, std::string_view(chars_).substr(arg.text_off, arg.text_len));
          buf += '"';
        }
      }
      buf += '}';
    }
    buf += '}';
    writer.poll();
  }
}

void ChromeTraceSink::write(std::ostream& out) const {
  harness::ChunkedWriter writer(out);
  format(writer);
  writer.buf() += "\n]}\n";
}

void ChromeTraceSink::finish() {
  spill();
  stream_->buf() += "\n]}\n";
  stream_->flush();
}

std::string ChromeTraceSink::str() const {
  std::ostringstream out;
  write(out);
  return out.str();
}

void ChromeTraceSink::write_file(const std::string& path) const {
  harness::write_artifact_file(path, "trace file",
                               [this](std::ostream& out) { write(out); });
}

}  // namespace wsched::obs
