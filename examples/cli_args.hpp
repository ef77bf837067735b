/// \file cli_args.hpp
/// Strict numeric argument parsing shared by the example programs.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
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

}  // namespace khop::examples
