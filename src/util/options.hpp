#pragma once
// Minimal command-line flag parsing for benches and examples.
//
// Supports `--name=value`, `--name value` and boolean `--name` forms; the
// harness binaries use it so every experiment is re-runnable with tweaked
// parameters without recompiling.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gdiam::util {

/// A malformed flag or flag value. Derives from std::invalid_argument so
/// generic handlers still catch it; a CLI catches it by type to report a
/// usage error rather than a runtime failure.
class OptionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Options {
 public:
  Options() = default;

  /// Parses argv; throws OptionError on malformed flags.
  Options(int argc, const char* const* argv);

  /// True when the flag was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       std::string fallback) const;
  /// The numeric getters parse the whole value: "4x", "0.5junk", "abc" or an
  /// out-of-range number throw OptionError naming the flag.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// get_int narrowed to u32 with a range check — for count-like flags such
  /// as --partitions; throws OptionError on negative or oversized values
  /// instead of silently truncating.
  [[nodiscard]] std::uint32_t get_uint32(const std::string& name,
                                         std::uint32_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// The first flag (in name order) not listed in `known`, if any. Commands
  /// reject flags they do not read instead of silently ignoring them.
  [[nodiscard]] std::optional<std::string> first_unknown(
      std::span<const std::string_view> known) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// For tests: inject a flag programmatically.
  void set(const std::string& name, std::string value);

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace gdiam::util
