#ifndef EXPLAINTI_UTIL_STATUS_H_
#define EXPLAINTI_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/logging.h"

namespace explainti::util {

/// Error category for a failed operation.
///
/// Modelled after the status codes used by database engines (RocksDB,
/// Arrow): a small closed set that callers can branch on, with a free-form
/// message for humans.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIoError,
  kUnimplemented,
  /// A request's monotonic deadline passed before the work ran; the
  /// serving layer sheds such requests before they consume compute.
  kDeadlineExceeded,
  /// A bounded resource (admission queue, memory budget) is full; the
  /// caller should back off and retry rather than expect buffering.
  kResourceExhausted,
};

/// Returns a short human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Result of an operation that can fail without a payload.
///
/// This library does not use exceptions; fallible public APIs return
/// `Status` (or `StatusOr<T>` when they produce a value). `Status` is cheap
/// to copy in the OK case and carries a message otherwise.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "Code: message" for logging.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type `T` or an error `Status`.
///
/// Minimal analogue of absl::StatusOr. Access the value only after checking
/// `ok()`; `value()` on an error status aborts the process (see CHECK in
/// logging.h), which is the intended failure mode for programming errors.
template <typename T>
class StatusOr {
 public:
  /// Implicit from value and from Status, mirroring absl::StatusOr, so that
  /// `return value;` and `return Status::...;` both work in factories.
  StatusOr(T value) : status_(Status::OK()), value_(std::move(value)) {}
  StatusOr(Status status) : status_(std::move(status)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CHECK(ok()) << "StatusOr::value() on error: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    CHECK(ok()) << "StatusOr::value() on error: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    CHECK(ok()) << "StatusOr::value() on error: " << status_.ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace explainti::util

#endif  // EXPLAINTI_UTIL_STATUS_H_
