// Whole-token number parsing for the tools' flags: "abc", "9x", "" or a
// value the target type cannot hold is rejected, where atoll/atof would
// return 0 or the leading digits.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <type_traits>
#include <utility>

namespace nb::tools {

template <typename T>
bool parse_number(const char* s, T& out) {
  static_assert(std::is_same_v<T, double> || std::is_integral_v<T>);
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_integral_v<T>) {
    const long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE || !std::in_range<T>(v)) {
      return false;
    }
    out = static_cast<T>(v);
  } else {
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
      return false;
    }
    out = v;
  }
  return true;
}

}  // namespace nb::tools
