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

std::uint32_t ChromeTraceSink::intern(const char* data, std::size_t len) {
  const auto off = static_cast<std::uint32_t>(chars_.size());
  chars_.append(data, len);
  return off;
}

ChromeTraceSink::Event& ChromeTraceSink::push(Category category, char phase,
                                              const char* name, int pid,
                                              int tid, Time ts,
                                              const TraceArgs& args) {
  ++per_category_[static_cast<std::size_t>(category)];
  if (name != nullptr) {
    recent_names_[recent_next_ % kRecent] = name;
    ++recent_next_;
  }
  Event event;
  event.category = category;
  event.phase = phase;
  event.name = name;
  event.pid = pid;
  event.tid = tid;
  event.ts = ts;
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
  events_.push_back(event);
  return events_.back();
}

void ChromeTraceSink::span(Category category, const char* name, int pid,
                           int tid, Time start, Time dur, TraceArgs args) {
  push(category, 'X', name, pid, tid, start, args).dur = dur;
}

void ChromeTraceSink::instant(Category category, const char* name, int pid,
                              int tid, Time t, TraceArgs args) {
  push(category, 'i', name, pid, tid, t, args);
}

void ChromeTraceSink::counter(Category category, const char* name, int pid,
                              Time t, double value) {
  Event& event = push(category, 'C', name, pid, 0, t, {});
  event.arg_begin = static_cast<std::uint32_t>(args_.size());
  event.arg_count = 1;
  Arg packed;
  packed.key = "value";
  packed.num = value;
  args_.push_back(packed);
}

void ChromeTraceSink::async_begin(Category category, const char* name,
                                  int pid, std::uint64_t id, Time t,
                                  TraceArgs args) {
  push(category, 'b', name, pid, 0, t, args).id = id;
}

void ChromeTraceSink::async_end(Category category, const char* name, int pid,
                                std::uint64_t id, Time t, TraceArgs args) {
  push(category, 'e', name, pid, 0, t, args).id = id;
}

void ChromeTraceSink::flow(Category category, char phase, const char* name,
                           int pid, int tid, Time t, std::uint64_t id) {
  push(category, phase, name, pid, tid, t, {}).id = id;
}

void ChromeTraceSink::name_process(int pid, const std::string& name) {
  Event& event = push(Category::kLog, 'M', "process_name", pid, 0, 0, {});
  event.arg_begin = static_cast<std::uint32_t>(args_.size());
  event.arg_count = 1;
  Arg packed;
  packed.key = "name";
  packed.text_off = intern(name.data(), name.size());
  packed.text_len = static_cast<std::uint32_t>(name.size());
  args_.push_back(packed);
}

void ChromeTraceSink::name_thread(int pid, int tid, const std::string& name) {
  Event& event = push(Category::kLog, 'M', "thread_name", pid, tid, 0, {});
  event.arg_begin = static_cast<std::uint32_t>(args_.size());
  event.arg_count = 1;
  Arg packed;
  packed.key = "name";
  packed.text_off = intern(name.data(), name.size());
  packed.text_len = static_cast<std::uint32_t>(name.size());
  args_.push_back(packed);
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

void ChromeTraceSink::write(std::ostream& out) const {
  harness::ChunkedWriter writer(out);
  std::string& buf = writer.buf();
  buf += "{\"traceEvents\":[\n";
  bool first = true;
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
  buf += "\n]}\n";
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
