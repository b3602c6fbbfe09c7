// Minimal CSV parsing for trace files. Writing (RFC-4180 quoting) is
// harness::append_csv_field, the one formatter every artifact uses.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace wsched {

/// Parses one CSV line into fields (handles quoted fields with embedded
/// commas and doubled quotes). Does not handle embedded newlines across
/// lines; trace files never contain them.
std::vector<std::string> parse_csv_line(std::string_view line);

}  // namespace wsched
