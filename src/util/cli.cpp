#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace wsched {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (arg.empty()) throw std::invalid_argument("bare -- is not a flag");
    // Only the first '=' separates name and value, so values may themselves
    // contain '=' (e.g. --filter=trace=UCB).
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      if (eq == 0) throw std::invalid_argument("flag with empty name: --" + arg);
      flags_[arg.substr(0, eq)].push_back(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg].push_back(argv[++i]);
    } else {
      flags_[arg].push_back("1");
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

namespace {

[[noreturn]] void reject(const std::string& name, const std::string& value,
                         const char* expected) {
  throw std::invalid_argument("--" + name + " expects " + expected +
                              ", got '" + value + "'");
}

}  // namespace

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

std::vector<std::string> CliArgs::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [name, value] : flags_) names.push_back(name);
  return names;
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
