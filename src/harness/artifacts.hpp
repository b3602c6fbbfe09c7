// Unified run artifacts for experiment sweeps, and the one formatter every
// artifact in the repo is written through.
//
// Every sweep produces an ordered list of ResultRows sharing one schema:
// the grid-point coordinates first, then whatever the evaluation measured
// (typically the MetricsSummary fields). The same rows serialize to CSV
// (for plotting scripts) and JSON (an array of objects, one per line, for
// anything structured). Serialization is deliberately dumb and canonical —
// identical rows always produce identical bytes — which is what lets the
// harness promise that a parallel sweep's artifacts are bit-identical to a
// serial run's.
//
// The append_* functions below are the only number formatting, JSON
// escaping and CSV quoting in the library: the sweep writers, the obs
// writers (Chrome trace, probe CSV, decision log, span exemplars) and the
// chaos-schedule JSON all call them, appending straight into a byte
// buffer that a ChunkedWriter hands to the stream in fixed chunks.
#pragma once

#include <charconv>
#include <cstddef>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace wsched::harness {

/// Appends `value` under the canonical number rule: integral values with
/// magnitude below 1e15 print as integers ("-0" prints "0"), everything
/// else (fractions, huge values, NaN, ±inf) as printf's %.10g.
void append_number(std::string& out, double value);

/// printf's %.10g, with no integral shortcut.
void append_general(std::string& out, double value);

/// printf's %.4f (the decision log's candidate costs).
void append_fixed4(std::string& out, double value);

/// An integer in base 10 (printf's %lld / %llu) or 16 (%llx).
template <typename Int>
void append_int(std::string& out, Int value, int base = 10) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, value, base);
  out.append(buf, res.ptr);
}

/// Appends `text` JSON-escaped (quote, backslash, every byte below 0x20),
/// without the surrounding quotes.
void append_json_escaped(std::string& out, std::string_view text);

/// Appends one CSV field per RFC 4180: quoted, with doubled quotes, only
/// when it contains a comma, quote, CR or LF.
void append_csv_field(std::string& out, std::string_view field);

/// Appends into buf() and hands the bytes to the stream one chunk at a
/// time: poll() between records writes the buffer once it holds kChunk
/// bytes, and destruction writes the rest. Memory stays at one chunk
/// whatever the artifact's size.
class ChunkedWriter {
 public:
  static constexpr std::size_t kChunk = std::size_t{1} << 20;

  explicit ChunkedWriter(std::ostream& out);
  ~ChunkedWriter();
  ChunkedWriter(const ChunkedWriter&) = delete;
  ChunkedWriter& operator=(const ChunkedWriter&) = delete;

  std::string& buf() { return buf_; }
  void poll() {
    if (buf_.size() >= kChunk) flush();
  }
  void flush();

 private:
  std::ostream& out_;
  std::string buf_;
};

/// An artifact file open for writing. The constructor throws
/// std::runtime_error "cannot open <what> <path>"; close() flushes and
/// throws "failed writing <what> <path>" if any write failed. A file that
/// was not closed cleanly (a write failed, or an exception unwound past
/// it) is removed on destruction when it is a regular file, so no
/// truncated artifact is left behind.
class ArtifactFile {
 public:
  ArtifactFile(std::string path, std::string what);
  ~ArtifactFile();
  ArtifactFile(const ArtifactFile&) = delete;
  ArtifactFile& operator=(const ArtifactFile&) = delete;

  std::ostream& stream() { return out_; }
  void close();

 private:
  std::string path_;
  std::string what_;
  std::ofstream out_;
  bool closed_ = false;
};

/// Writes an artifact file: opens `path` as an ArtifactFile, runs `write`
/// and closes it, with ArtifactFile's errors.
void write_artifact_file(const std::string& path, const std::string& what,
                         const std::function<void(std::ostream&)>& write);

/// One named cell of a result row. `numeric` cells serialize unquoted in
/// JSON (non-finite values become null); text cells are escaped.
struct Field {
  std::string name;
  std::string text;
  bool numeric = false;
};

/// An ordered, named record of one grid point's results. Field order is
/// insertion order; set() on an existing name overwrites in place so the
/// schema stays stable across rows.
class ResultRow {
 public:
  ResultRow& set(std::string name, std::string value);
  ResultRow& set(std::string name, const char* value);
  ResultRow& set(std::string name, double value);
  ResultRow& set(std::string name, long long value);
  ResultRow& set(std::string name, unsigned long long value);
  ResultRow& set(std::string name, int value);
  ResultRow& set_bool(std::string name, bool value);

  /// Appends every field of `other` (numeric flags preserved), overwriting
  /// same-named fields in place.
  ResultRow& merge(const ResultRow& other);

  bool has(const std::string& name) const;
  /// Throws std::out_of_range for unknown names.
  const std::string& text(const std::string& name) const;
  /// Numeric value of a cell (parses the canonical text); throws
  /// std::out_of_range for unknown names.
  double number(const std::string& name) const;

  const std::vector<Field>& fields() const { return fields_; }

 private:
  ResultRow& set_field(std::string name, std::string text, bool numeric);
  std::vector<Field> fields_;
};

/// append_number into a fresh string.
std::string format_number(double value);

/// Writes rows as CSV: header from the first row's field names, then one
/// line per row. Throws std::invalid_argument if any row's schema differs
/// from the first's — a sweep must emit one stable schema.
void write_csv(std::ostream& out, const std::vector<ResultRow>& rows);

/// Writes rows as a JSON array of flat objects (one object per line).
/// Same schema requirement as write_csv.
void write_json(std::ostream& out, const std::vector<ResultRow>& rows);

std::string csv_string(const std::vector<ResultRow>& rows);
std::string json_string(const std::vector<ResultRow>& rows);

/// append_json_escaped into a fresh string.
std::string json_escape(const std::string& text);

}  // namespace wsched::harness
