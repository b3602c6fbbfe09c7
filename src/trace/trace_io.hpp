// CSV persistence for traces, so generated workloads can be inspected,
// archived, and replayed byte-identically across tool invocations.
//
// Format: header line, then one row per record:
//   arrival_ns,class,size_bytes,service_demand_ns,cpu_fraction,mem_pages
#pragma once

#include <iosfwd>
#include <string>

#include "trace/record.hpp"

namespace wsched::trace {

void save_trace(std::ostream& out, const Trace& trace);
void save_trace_file(const std::string& path, const Trace& trace);

/// Parses a trace written by save_trace. Throws std::runtime_error naming
/// the line and field on malformed input: a wrong column count, a number
/// that does not parse in full or does not fit its field, a bad class, a
/// negative or decreasing arrival, a non-positive service demand, a
/// cpu_fraction outside [0, 1] (NaN included) or zero mem_pages.
Trace load_trace(std::istream& in);
Trace load_trace_file(const std::string& path);

}  // namespace wsched::trace
