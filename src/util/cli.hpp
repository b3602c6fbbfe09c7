// Tiny command-line flag parser used by the bench/example binaries.
//
// Flags take the form --name=value or --name value; bare --name sets a
// boolean. A flag the program declares as a switch never takes the next
// token as its value (--spans trace.json leaves trace.json positional;
// --spans=0 still turns it off). A flag may repeat (--filter a --filter
// b); scalar getters return the last occurrence, get_all() returns every
// value in order — this is what lets sweep filters compose. Only the first '=' splits name from
// value, so --filter=trace=UCB keeps "trace=UCB" intact. A program declares
// the flags it reads and how many positional arguments it takes; any other
// flag or argument raises an error, so typos in experiment scripts are
// caught rather than silently ignored.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace wsched {

class CliArgs {
 public:
  /// Parses argv, accepting only the flags named in `flags` or `switches`
  /// and at most `max_positional` positional arguments; throws
  /// std::invalid_argument on malformed input or naming the first argument
  /// it does not accept. A switch takes a value only through '='.
  CliArgs(int argc, const char* const* argv,
          const std::vector<std::string>& flags,
          std::size_t max_positional = 0,
          const std::vector<std::string>& switches = {});

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// Typed getters: the whole value must parse (a base-10 integer, a
  /// number, or one of 1/0, true/false, yes/no, on/off), otherwise they
  /// throw std::invalid_argument naming the flag and the value, or, after
  /// exit_on_bad_value(), report it through usage_error().
  long long get_int(const std::string& name, long long fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Every value a repeated flag was given, in command-line order; empty
  /// when the flag is absent.
  std::vector<std::string> get_all(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Makes a malformed value read by a typed getter a usage error of the
  /// program `argv0` ("prog: message", exit status 2) instead of a throw.
  void exit_on_bad_value(const char* argv0) { argv0_ = argv0; }

 private:
  [[noreturn]] void reject(const std::string& name, const std::string& value,
                           const char* expected) const;

  std::map<std::string, std::vector<std::string>> flags_;
  std::vector<std::string> positional_;
  const char* argv0_ = nullptr;
};

/// Reports a command-line usage error: "prog: message" on stderr, where
/// prog is argv0's file name, then exits with status 2.
[[noreturn]] void usage_error(const char* argv0, const std::string& message);

/// Reads an environment-variable override used by experiment harnesses,
/// e.g. WSCHED_QUICK=1 shrinks run sizes for CI. Returns fallback when the
/// variable is unset or unparsable.
bool env_flag(const char* name, bool fallback);
double env_double(const char* name, double fallback);

}  // namespace wsched
