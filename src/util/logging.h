#ifndef EXPLAINTI_UTIL_LOGGING_H_
#define EXPLAINTI_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace explainti::util {

/// Severity levels for LOG(). kFatal aborts after printing.
enum class LogSeverity { kInfo = 0, kWarning = 1, kError = 2, kFatal = 3 };

/// Minimum severity printed by LOG(): EXPLAINTI_MIN_LOG_SEVERITY, read on
/// first use; default prints everything.
LogSeverity MinLogSeverity();

namespace internal_logging {

/// Stream-style log line; flushes (and possibly aborts) in the destructor.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogSeverity severity_;
  std::ostringstream stream_;
};

/// Swallows a log stream; used for disabled severities.
struct LogMessageVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging
}  // namespace explainti::util

#define EXPLAINTI_LOG_INFO \
  ::explainti::util::internal_logging::LogMessage( \
      ::explainti::util::LogSeverity::kInfo, __FILE__, __LINE__)
#define EXPLAINTI_LOG_WARNING \
  ::explainti::util::internal_logging::LogMessage( \
      ::explainti::util::LogSeverity::kWarning, __FILE__, __LINE__)
#define EXPLAINTI_LOG_ERROR \
  ::explainti::util::internal_logging::LogMessage( \
      ::explainti::util::LogSeverity::kError, __FILE__, __LINE__)
#define EXPLAINTI_LOG_FATAL \
  ::explainti::util::internal_logging::LogMessage( \
      ::explainti::util::LogSeverity::kFatal, __FILE__, __LINE__)

/// LOG(INFO) << "message"; severities: INFO, WARNING, ERROR, FATAL.
#define LOG(severity) EXPLAINTI_LOG_##severity.stream()

/// Aborts with a message when `condition` is false. Used for programming
/// errors (invariant violations), never for data-dependent failures — those
/// return util::Status.
#define CHECK(condition)                                     \
  (condition) ? (void)0                                      \
              : ::explainti::util::internal_logging::LogMessageVoidify() & \
                    EXPLAINTI_LOG_FATAL.stream()             \
                        << "Check failed: " #condition " "

#define CHECK_EQ(a, b) CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define CHECK_NE(a, b) CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define CHECK_LT(a, b) CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define CHECK_LE(a, b) CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define CHECK_GT(a, b) CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define CHECK_GE(a, b) CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

/// Aborts if `status_expr` is not OK; for callers that cannot recover.
#define CHECK_OK(status_expr)                                  \
  do {                                                         \
    const ::explainti::util::Status _st = (status_expr);       \
    CHECK(_st.ok()) << _st.ToString();                         \
  } while (0)

#endif  // EXPLAINTI_UTIL_LOGGING_H_
