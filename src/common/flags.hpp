// Minimal command-line flag parser for the example/tool binaries:
// `--name value` and `--name=value` forms and typed accessors with defaults.
// No global state.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace prophet {

class Flags {
 public:
  // Parses argv; returns std::nullopt (and fills `error`) on malformed input
  // or on a flag whose name is not in `known`, the flags the binary accepts.
  static std::optional<Flags> parse(int argc, const char* const* argv,
                                    const std::vector<std::string>& known,
                                    std::string* error = nullptr);

  [[nodiscard]] bool has(const std::string& name) const;
  // Accessors by type. A flag given without a value (`--asp`, or followed by
  // another flag) reads true as a boolean. A present flag whose value is
  // empty, or is not wholly a finite number, an integer, or one of
  // true|false|1|0|yes|no respectively, is a usage error: the accessor prints
  // a line naming the flag and exits the process with status 1, so a binary
  // never runs on a misread value.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& name, double fallback) const;
  [[nodiscard]] std::int64_t get(const std::string& name,
                                 std::int64_t fallback) const;
  [[nodiscard]] bool get(const std::string& name, bool fallback) const;

  // Non-flag positional arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace prophet
