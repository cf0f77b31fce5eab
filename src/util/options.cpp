#include "util/options.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace gdiam::util {

namespace {

/// Parses all of `value` with `parse` (std::stoll / std::stod style), so a
/// trailing "x" or "junk" is an error rather than silently dropped.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& value,
                 Parse parse) {
  std::size_t used = 0;
  try {
    const auto parsed = parse(value, &used);
    if (used == value.size()) return parsed;
  } catch (const std::logic_error&) {  // invalid_argument or out_of_range
  }
  throw OptionError("bad value for --" + name + ": '" + value + "'");
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (arg.empty()) throw OptionError("bare '--' flag");
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "";  // boolean flag
    }
  }
}

bool Options::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string Options::get_string(const std::string& name,
                                std::string fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? std::move(fallback) : it->second;
}

std::int64_t Options::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return parse_whole(name, it->second,
                     [](const std::string& v, std::size_t* used) {
                       return std::stoll(v, used);
                     });
}

std::uint32_t Options::get_uint32(const std::string& name,
                                  std::uint32_t fallback) const {
  const std::int64_t v = get_int(name, static_cast<std::int64_t>(fallback));
  if (v < 0 || v > static_cast<std::int64_t>(
                      std::numeric_limits<std::uint32_t>::max())) {
    throw OptionError("flag --" + name + " out of range");
  }
  return static_cast<std::uint32_t>(v);
}

double Options::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return parse_whole(name, it->second,
                     [](const std::string& v, std::size_t* used) {
                       return std::stod(v, used);
                     });
}

bool Options::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty() || it->second == "true" || it->second == "1") {
    return true;
  }
  if (it->second == "false" || it->second == "0") return false;
  throw OptionError("boolean flag --" + name + "=" + it->second);
}

std::optional<std::string> Options::first_unknown(
    std::span<const std::string_view> known) const {
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return name;
    }
  }
  return std::nullopt;
}

void Options::set(const std::string& name, std::string value) {
  flags_[name] = std::move(value);
}

}  // namespace gdiam::util
