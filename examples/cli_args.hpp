/// \file cli_args.hpp
/// Strict numeric argument parsing shared by the example programs.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <system_error>
#include <type_traits>

namespace khop::examples {

/// Parses all of \p arg as a T: no sign on unsigned types, no trailing
/// characters, no out-of-range or non-finite values.
template <typename T>
std::optional<T> parse_number(const char* arg) {
  T value{};
  const char* end = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// Parses \p value, the argument of option \p flag, whole into \p out; on
/// failure prints the error and \p usage to stderr and exits 2.
template <typename T>
void parse_option_or_exit(const char* flag, const char* value,
                          const char* usage, T& out) {
  const auto parsed = parse_number<T>(value);
  if (!parsed) {
    std::cerr << "invalid value for " << flag << ": " << value << "\n"
              << usage;
    std::exit(2);
  }
  out = *parsed;
}

/// Parses the positional arguments argv[1..argc) whole into \p outs, in
/// order; an absent trailing argument keeps its default. False on a
/// malformed value or on more arguments than outputs.
template <typename... T>
bool parse_positional(int argc, char** argv, T&... outs) {
  if (argc - 1 > static_cast<int>(sizeof...(T))) return false;
  int i = 1;
  const auto one = [&]<typename U>(U& out) {
    if (i >= argc) return true;
    const auto parsed = parse_number<U>(argv[i++]);
    if (parsed) out = *parsed;
    return parsed.has_value();
  };
  return (one(outs) && ...);
}

}  // namespace khop::examples
