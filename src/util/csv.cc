#include "util/csv.h"

#include <fstream>
#include <sstream>

#include "util/fault_injection.h"

namespace explainti::util {

namespace {

/// Hard cap on a single field; real-world dirty tables occasionally carry
/// megabyte blobs (stack traces, base64) that would otherwise blow up the
/// serialiser downstream.
constexpr size_t kMaxFieldBytes = 1 << 20;  // 1 MiB

}  // namespace

StatusOr<std::vector<std::vector<std::string>>> ParseCsv(
    const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  const auto end_field = [&]() {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  const auto end_row = [&]() {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\0') {
      return Status::InvalidArgument("embedded NUL byte at offset " +
                                     std::to_string(i));
    }
    if (field.size() > kMaxFieldBytes) {
      return Status::InvalidArgument(
          "field exceeds " + std::to_string(kMaxFieldBytes) +
          " bytes at offset " + std::to_string(i));
    }
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field.empty()) {
          return Status::InvalidArgument(
              "quote inside unquoted field at offset " + std::to_string(i));
        }
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        field_started = true;  // The next field exists even if empty.
        break;
      case '\r':
        break;  // Tolerate CRLF.
      case '\n':
        if (!field_started && field.empty() && row.empty()) {
          // A blank line is a zero-column row, not a one-empty-field row;
          // table loaders reject these explicitly.
          rows.emplace_back();
        } else {
          end_row();
        }
        break;
      default:
        field.push_back(c);
        field_started = true;
        break;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field");
  }
  if (field_started || !field.empty() || !row.empty()) {
    end_row();  // Final row without a trailing newline.
  }
  return rows;
}

StatusOr<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path) {
  if (Status fault = FAULT_POINT("csv.read"); !fault.ok()) return fault;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("read failed for " + path);
  }
  return ParseCsv(buffer.str());
}

}  // namespace explainti::util
