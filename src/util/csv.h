#ifndef EXPLAINTI_UTIL_CSV_H_
#define EXPLAINTI_UTIL_CSV_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace explainti::util {

/// Parses RFC-4180-style CSV text: comma-separated fields, double-quote
/// quoting with "" escapes, LF or CRLF row ends. Returns the rows; rows
/// may have differing field counts (callers validate shape) and a blank
/// line parses as a zero-column row. Hostile input — embedded NUL bytes,
/// fields above 1 MiB, unterminated quotes — returns InvalidArgument
/// rather than ever aborting.
StatusOr<std::vector<std::vector<std::string>>> ParseCsv(
    const std::string& text);

/// Reads and parses a CSV file.
StatusOr<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path);

}  // namespace explainti::util

#endif  // EXPLAINTI_UTIL_CSV_H_
