#ifndef EXPLAINTI_UTIL_STRING_UTIL_H_
#define EXPLAINTI_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace explainti::util {

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// ASCII lower-casing (table text is ASCII in this library).
std::string ToLower(std::string_view text);

/// Strips leading and trailing ASCII whitespace.
std::string Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

/// Formats `value` with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision);

}  // namespace explainti::util

#endif  // EXPLAINTI_UTIL_STRING_UTIL_H_
