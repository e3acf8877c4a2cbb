#include "util/logging.h"

#include <cstring>
#include <mutex>

namespace explainti::util {

namespace {

/// Parses EXPLAINTI_MIN_LOG_SEVERITY ("INFO".."FATAL" or "0".."3"); falls
/// back to kInfo on anything unrecognised.
LogSeverity SeverityFromEnv() {
  const char* env = std::getenv("EXPLAINTI_MIN_LOG_SEVERITY");
  if (env == nullptr || env[0] == '\0') return LogSeverity::kInfo;
  if (std::strcmp(env, "INFO") == 0 || std::strcmp(env, "0") == 0) {
    return LogSeverity::kInfo;
  }
  if (std::strcmp(env, "WARNING") == 0 || std::strcmp(env, "1") == 0) {
    return LogSeverity::kWarning;
  }
  if (std::strcmp(env, "ERROR") == 0 || std::strcmp(env, "2") == 0) {
    return LogSeverity::kError;
  }
  if (std::strcmp(env, "FATAL") == 0 || std::strcmp(env, "3") == 0) {
    return LogSeverity::kFatal;
  }
  return LogSeverity::kInfo;
}

/// Serialises the std::cerr write in ~LogMessage so concurrent log lines
/// never interleave mid-line.
std::mutex& SinkMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

const char* SeverityTag(LogSeverity severity) {
  switch (severity) {
    case LogSeverity::kInfo:
      return "I";
    case LogSeverity::kWarning:
      return "W";
    case LogSeverity::kError:
      return "E";
    case LogSeverity::kFatal:
      return "F";
  }
  return "?";
}
}  // namespace

LogSeverity MinLogSeverity() {
  static const LogSeverity min_severity = SeverityFromEnv();
  return min_severity;
}

namespace internal_logging {

LogMessage::LogMessage(LogSeverity severity, const char* file, int line)
    : severity_(severity) {
  stream_ << "[" << SeverityTag(severity) << " " << file << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  if (severity_ >= MinLogSeverity() || severity_ == LogSeverity::kFatal) {
    std::lock_guard<std::mutex> lock(SinkMutex());
    std::cerr << stream_.str() << std::endl;
  }
  if (severity_ == LogSeverity::kFatal) {
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace explainti::util
