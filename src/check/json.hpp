// The one JSON reader in the repo: chaos-schedule files (check/schedule.hpp)
// and the artifact checker (check/artifacts.hpp) both parse with it.
//
// A small strict recursive-descent reader over RFC 8259 JSON — objects,
// arrays, strings, numbers, booleans, null — with no dependency beyond the
// standard library. Malformed input (a raw control byte in a string, a
// number such as +1, 01, 1. or .5, nesting past 64 levels) throws
// std::invalid_argument naming the byte offset. Numbers are parsed as
// double, which is lossless for the 2^53 range schedules and artifacts
// live in; `integral` marks a number written as an integer literal within
// (-2^53, 2^53), so a checker can tell 5 from 5.0 and add integers exactly.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace wsched::check {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  /// A number written without fraction or exponent, |number| < 2^53.
  bool integral = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered members (schedules are written canonically, and
  /// order-preserving round trips keep byte-identity testable).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is(Kind k) const { return kind == k; }

  /// Member lookup; null when absent or when this is not an object.
  const JsonValue* find(const std::string& key) const;

  // Typed accessors with defaults for optional members. A member present
  // with the wrong kind throws std::invalid_argument — a schedule with
  // "loss": "high" is corrupt, not defaulted.
  double get_number(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
};

/// Parses one JSON document (leading/trailing whitespace allowed; anything
/// after the value is an error). Throws std::invalid_argument.
JsonValue parse_json(const std::string& text);

/// A file's bytes, for the readers; throws std::invalid_argument naming the
/// path when it cannot be opened.
std::string read_file(const std::string& path);

}  // namespace wsched::check
