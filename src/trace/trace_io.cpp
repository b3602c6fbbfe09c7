#include "trace/trace_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/csv.hpp"

namespace wsched::trace {
namespace {

constexpr const char* kHeader =
    "arrival_ns,class,size_bytes,service_demand_ns,cpu_fraction,mem_pages,"
    "url_id";

[[noreturn]] void reject(const char* field, const std::string& text,
                         const std::string& why) {
  throw std::runtime_error(field + (" '" + text + "' ") + why);
}

/// The whole of `text` as a T, or a runtime_error naming the field: a
/// partial parse ("100abc"), a sign on an unsigned field and a value
/// outside T's range are all refused.
template <typename T>
T parse_field(const char* field, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::result_out_of_range)
    reject(field, text, "is out of range");
  if (error != std::errc() || stop != end) {
    if constexpr (std::is_floating_point_v<T>)
      reject(field, text, "is not a number");
    else if constexpr (std::is_unsigned_v<T>)
      reject(field, text, "is not a non-negative integer");
    else
      reject(field, text, "is not an integer");
  }
  return value;
}

}  // namespace

void save_trace(std::ostream& out, const Trace& trace) {
  out << kHeader << '\n';
  for (const auto& rec : trace.records) {
    out << rec.arrival << ','
        << (rec.is_dynamic() ? "dynamic" : "static") << ','
        << rec.size_bytes << ',' << rec.service_demand << ','
        << rec.cpu_fraction << ',' << rec.mem_pages << ','
        << rec.url_id << '\n';
  }
}

void save_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save_trace(out, trace);
}

Trace load_trace(std::istream& in) {
  Trace trace;
  std::string line;
  if (!std::getline(in, line))
    throw std::runtime_error("empty trace file");
  if (line.find("arrival_ns") == std::string::npos)
    throw std::runtime_error("missing trace header");
  std::size_t line_no = 1;
  Time last_arrival = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = parse_csv_line(line);
    // 6-field rows are accepted for files written before url_id existed.
    if (fields.size() != 6 && fields.size() != 7)
      throw std::runtime_error("trace line " + std::to_string(line_no) +
                               ": expected 6 or 7 fields");
    try {
      TraceRecord rec;
      rec.arrival = parse_field<Time>("arrival_ns", fields[0]);
      if (rec.arrival < 0) reject("arrival_ns", fields[0], "is negative");
      // A replay clamps a backwards arrival to the clock, which would leave
      // the request's recorded and effective arrival times disagreeing.
      if (rec.arrival < last_arrival)
        reject("arrival_ns", fields[0],
               "is before the previous row's " + std::to_string(last_arrival));
      if (fields[1] == "dynamic") {
        rec.cls = RequestClass::kDynamic;
      } else if (fields[1] == "static") {
        rec.cls = RequestClass::kStatic;
      } else {
        reject("class", fields[1], "is neither static nor dynamic");
      }
      rec.size_bytes = parse_field<std::uint32_t>("size_bytes", fields[2]);
      rec.service_demand = parse_field<Time>("service_demand_ns", fields[3]);
      if (rec.service_demand <= 0)
        reject("service_demand_ns", fields[3], "is not positive");
      rec.cpu_fraction = parse_field<double>("cpu_fraction", fields[4]);
      if (!(rec.cpu_fraction >= 0.0 && rec.cpu_fraction <= 1.0))
        reject("cpu_fraction", fields[4], "is outside [0, 1]");
      rec.mem_pages = parse_field<std::uint32_t>("mem_pages", fields[5]);
      if (rec.mem_pages < 1) reject("mem_pages", fields[5], "is below 1");
      if (fields.size() == 7)
        rec.url_id = parse_field<std::uint64_t>("url_id", fields[6]);
      last_arrival = rec.arrival;
      trace.records.push_back(rec);
    } catch (const std::exception& e) {
      throw std::runtime_error("trace line " + std::to_string(line_no) +
                               ": " + e.what());
    }
  }
  return trace;
}

Trace load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return load_trace(in);
}

}  // namespace wsched::trace
