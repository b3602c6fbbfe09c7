#include "util/csv.hpp"

namespace wsched {

std::vector<std::string> parse_csv_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(ch);
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (ch == '\r') {
      // tolerate CRLF
    } else {
      current.push_back(ch);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

}  // namespace wsched
