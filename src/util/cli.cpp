#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace wsched {

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& flags,
                 std::size_t max_positional,
                 const std::vector<std::string>& switches) {
  const auto declared = [](const std::vector<std::string>& names,
                           const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (positional_.size() == max_positional)
        throw std::invalid_argument("unexpected argument '" + arg + "'");
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (arg.empty()) throw std::invalid_argument("bare -- is not a flag");
    // Only the first '=' separates name and value, so values may themselves
    // contain '=' (e.g. --filter=trace=UCB).
    const auto eq = arg.find('=');
    if (eq == 0) throw std::invalid_argument("flag with empty name: --" + arg);
    const std::string name = arg.substr(0, eq);
    const bool is_switch = declared(switches, name);
    if (!is_switch && !declared(flags, name))
      throw std::invalid_argument("unknown flag --" + name);
    std::vector<std::string>& values = flags_[name];
    if (eq != std::string::npos) {
      values.push_back(arg.substr(eq + 1));
    } else if (!is_switch && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values.push_back(argv[++i]);
    } else {
      values.push_back("1");
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second.back();
}

std::vector<std::string> CliArgs::get_all(const std::string& name) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? std::vector<std::string>{} : it->second;
}

void CliArgs::reject(const std::string& name, const std::string& value,
                     const char* expected) const {
  const std::string message =
      "--" + name + " expects " + expected + ", got '" + value + "'";
  if (argv0_ != nullptr) usage_error(argv0_, message);
  throw std::invalid_argument(message);
}

long long CliArgs::get_int(const std::string& name, long long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second.back();
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE)
    reject(name, v, "an integer");
  return parsed;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second.back();
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE)
    reject(name, v, "a number");
  return parsed;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second.back();
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  reject(name, v, "1/0, true/false, yes/no or on/off");
}

void usage_error(const char* argv0, const std::string& message) {
  const std::string path = argv0 != nullptr ? argv0 : "";
  const std::string prog = path.substr(path.find_last_of('/') + 1);
  std::fprintf(stderr, "%s: %s\n", prog.c_str(), message.c_str());
  std::exit(2);
}

bool env_flag(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const std::string v = value;
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return end == value ? fallback : parsed;
}

}  // namespace wsched
