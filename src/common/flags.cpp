#include "common/flags.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace prophet {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* want) {
  std::fprintf(stderr, "--%s wants %s, got '%s'\n", name.c_str(), want,
               value.c_str());
  std::exit(1);
}

}  // namespace

std::optional<Flags> Flags::parse(int argc, const char* const* argv,
                                  const std::vector<std::string>& known,
                                  std::string* error) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) {
      if (error != nullptr) *error = "bare '--' is not a flag";
      return std::nullopt;
    }
    const auto eq = body.find('=');
    const std::string name = body.substr(0, eq);
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      if (error != nullptr) *error = "unknown flag --" + name;
      return std::nullopt;
    }
    if (eq != std::string::npos) {
      flags.values_[name] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string{argv[i + 1]}.rfind("--", 0) != 0) {
      // `--name value` unless the next token is another flag (then bare).
      flags.values_[name] = argv[++i];
    } else {
      flags.values_[name] = "";
    }
  }
  return flags;
}

bool Flags::has(const std::string& name) const { return values_.contains(name); }

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (it->second.empty()) bad_value(name, it->second, "a value");
  return it->second;
}

double Flags::get(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(value)) {
    bad_value(name, text, "a finite number");
  }
  return value;
}

std::int64_t Flags::get(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    bad_value(name, text, "an integer");
  }
  return value;
}

bool Flags::get(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  if (text.empty() || text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  bad_value(name, text, "true|false|1|0|yes|no");
}

}  // namespace prophet
