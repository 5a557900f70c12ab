#ifndef DLROVER_COMMON_LOGGING_H_
#define DLROVER_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace dlrover {

/// Log severities in increasing order of importance. Messages below
/// kWarning are dropped, so tests and benches stay quiet.
enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal_logging {

/// Stream-style log sink: collects a message and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

// Stream form: DLROVER_LOG_STREAM(Info) << "x=" << x;
#define DLROVER_LOG_STREAM(level)                                        \
  ::dlrover::internal_logging::LogMessage(::dlrover::LogLevel::k##level, \
                                          __FILE__, __LINE__)            \
      .stream()

}  // namespace dlrover

#endif  // DLROVER_COMMON_LOGGING_H_
