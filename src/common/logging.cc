#include "common/logging.h"

#include <cstdio>

namespace dlrover {
namespace {

/// Messages below this level are dropped.
constexpr LogLevel kMinLogLevel = LogLevel::kWarning;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

}  // namespace

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Keep only the basename to keep lines short.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelTag(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) < static_cast<int>(kMinLogLevel)) return;
  std::string message = stream_.str();
  std::fprintf(stderr, "%s\n", message.c_str());
}

}  // namespace internal_logging
}  // namespace dlrover
