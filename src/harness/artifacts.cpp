#include "harness/artifacts.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace wsched::harness {

// --- the formatter --------------------------------------------------------

void append_number(std::string& out, double value) {
  // The range test comes first: NaN, ±inf and huge values never reach the
  // integral conversion.
  if (std::abs(value) < 1e15 && value == std::trunc(value)) {
    append_int(out, static_cast<long long>(value));
  } else {
    append_general(out, value);
  }
}

void append_general(std::string& out, double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value,
                                 std::chars_format::general, 10);
  out.append(buf, res.ptr);
}

void append_fixed4(std::string& out, double value) {
  char buf[320];  // DBL_MAX has 309 integer digits
  const auto res = std::to_chars(buf, buf + sizeof buf, value,
                                 std::chars_format::fixed, 4);
  out.append(buf, res.ptr);
}

void append_json_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t plain = 0;  // start of the pending run of unescaped bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto ch = static_cast<unsigned char>(text[i]);
    if (ch >= 0x20 && ch != '"' && ch != '\\') continue;
    out.append(text.data() + plain, i - plain);
    plain = i + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[ch >> 4], kHex[ch & 15]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(text.data() + plain, text.size() - plain);
}

void append_csv_field(std::string& out, std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    out.append(field);
    return;
  }
  out += '"';
  for (char ch : field) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
}

ChunkedWriter::ChunkedWriter(std::ostream& out) : out_(out) {}

ChunkedWriter::~ChunkedWriter() { flush(); }

void ChunkedWriter::flush() {
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void write_artifact_file(const std::string& path, const std::string& what,
                         const std::function<void(std::ostream&)>& write) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + what + " " + path);
  write(out);
  out.close();
  if (!out) throw std::runtime_error("failed writing " + what + " " + path);
}

std::string format_number(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

std::string json_escape(const std::string& text) {
  std::string out;
  append_json_escaped(out, text);
  return out;
}

// --- result rows ----------------------------------------------------------

ResultRow& ResultRow::set_field(std::string name, std::string text,
                                bool numeric) {
  for (Field& field : fields_) {
    if (field.name == name) {
      field.text = std::move(text);
      field.numeric = numeric;
      return *this;
    }
  }
  fields_.push_back({std::move(name), std::move(text), numeric});
  return *this;
}

ResultRow& ResultRow::set(std::string name, std::string value) {
  return set_field(std::move(name), std::move(value), false);
}

ResultRow& ResultRow::set(std::string name, const char* value) {
  return set_field(std::move(name), std::string(value), false);
}

ResultRow& ResultRow::set(std::string name, double value) {
  return set_field(std::move(name), format_number(value), true);
}

ResultRow& ResultRow::set(std::string name, long long value) {
  return set_field(std::move(name), std::to_string(value), true);
}

ResultRow& ResultRow::set(std::string name, unsigned long long value) {
  return set_field(std::move(name), std::to_string(value), true);
}

ResultRow& ResultRow::set(std::string name, int value) {
  return set_field(std::move(name), std::to_string(value), true);
}

ResultRow& ResultRow::set_bool(std::string name, bool value) {
  return set_field(std::move(name), value ? "1" : "0", true);
}

ResultRow& ResultRow::merge(const ResultRow& other) {
  for (const Field& field : other.fields_)
    set_field(field.name, field.text, field.numeric);
  return *this;
}

bool ResultRow::has(const std::string& name) const {
  for (const Field& field : fields_)
    if (field.name == name) return true;
  return false;
}

const std::string& ResultRow::text(const std::string& name) const {
  for (const Field& field : fields_)
    if (field.name == name) return field.text;
  throw std::out_of_range("ResultRow: no field named '" + name + "'");
}

double ResultRow::number(const std::string& name) const {
  return std::stod(text(name));
}

namespace {

void check_schema(const std::vector<ResultRow>& rows) {
  if (rows.empty()) return;
  const auto& head = rows.front().fields();
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& fields = rows[r].fields();
    bool same = fields.size() == head.size();
    for (std::size_t i = 0; same && i < fields.size(); ++i)
      same = fields[i].name == head[i].name;
    if (!same)
      throw std::invalid_argument(
          "sweep rows disagree on schema at row " + std::to_string(r) +
          "; every evaluation must emit the same fields in the same order");
  }
}

}  // namespace

void write_csv(std::ostream& out, const std::vector<ResultRow>& rows) {
  check_schema(rows);
  if (rows.empty()) return;
  ChunkedWriter writer(out);
  std::string& buf = writer.buf();
  const auto& head = rows.front().fields();
  for (std::size_t i = 0; i < head.size(); ++i) {
    if (i) buf += ',';
    append_csv_field(buf, head[i].name);
  }
  buf += '\n';
  for (const ResultRow& row : rows) {
    for (std::size_t i = 0; i < row.fields().size(); ++i) {
      if (i) buf += ',';
      append_csv_field(buf, row.fields()[i].text);
    }
    buf += '\n';
    writer.poll();
  }
}

void write_json(std::ostream& out, const std::vector<ResultRow>& rows) {
  check_schema(rows);
  ChunkedWriter writer(out);
  std::string& buf = writer.buf();
  buf += '[';
  for (std::size_t r = 0; r < rows.size(); ++r) {
    buf += r == 0 ? "\n{" : ",\n{";
    const auto& fields = rows[r].fields();
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i) buf += ',';
      buf += '"';
      append_json_escaped(buf, fields[i].name);
      buf += "\":";
      const std::string& text = fields[i].text;
      if (!fields[i].numeric) {
        buf += '"';
        append_json_escaped(buf, text);
        buf += '"';
      } else if (text == "inf" || text == "-inf" || text == "nan" ||
                 text == "-nan") {
        // Non-finite values are not valid JSON numbers.
        buf += "null";
      } else {
        buf += text;
      }
    }
    buf += '}';
    writer.poll();
  }
  buf += "\n]\n";
}

std::string csv_string(const std::vector<ResultRow>& rows) {
  std::ostringstream out;
  write_csv(out, rows);
  return out.str();
}

std::string json_string(const std::vector<ResultRow>& rows) {
  std::ostringstream out;
  write_json(out, rows);
  return out.str();
}

}  // namespace wsched::harness
