#include "util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fpm::util {

std::int64_t parse_int64(const std::string& text, const std::string& what) {
  std::size_t consumed = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(text, &consumed, 10);
  } catch (const std::exception&) {
    throw std::invalid_argument(what + " expects a non-negative integer, got '" +
                                text + "'");
  }
  if (consumed != text.size() || value < 0)
    throw std::invalid_argument(what + " expects a non-negative integer, got '" +
                                text + "'");
  return value;
}

double parse_double(const std::string& text, const std::string& what) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument(what + " expects a finite number, got '" +
                                text + "'");
  }
  if (consumed != text.size() || !std::isfinite(value))
    throw std::invalid_argument(what + " expects a finite number, got '" +
                                text + "'");
  return value;
}

CliArgs::CliArgs(int argc, const char* const* argv,
                 std::vector<std::string> switches, int first)
    : switches_(std::move(switches)) {
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0)
      throw std::invalid_argument("expected --flag, got '" + key + "'");
    const bool is_switch =
        std::find(switches_.begin(), switches_.end(), key) != switches_.end();
    if (is_switch) {
      values_.insert_or_assign(key, std::string(1, '1'));
    } else {
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for " + key);
      values_[key] = argv[++i];
    }
  }
}

std::optional<std::string> CliArgs::get(const std::string& key) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::nullopt
                             : std::optional<std::string>(it->second);
}

std::string CliArgs::require(const std::string& key) const {
  const auto v = get(key);
  if (!v) throw std::invalid_argument("missing required flag " + key);
  return *v;
}

double CliArgs::number(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return parse_double(*v, "flag " + key);
}

std::int64_t CliArgs::integer(const std::string& key,
                              std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return parse_int64(*v, "flag " + key);
}

}  // namespace fpm::util
