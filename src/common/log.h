// Minimal leveled logger.
//
// The simulator logs slot-by-slot traces at kTrace which tests use to replay
// the paper's figures; benches run at kWarn to keep output clean. The logger
// is a process-wide singleton guarded for single-threaded simulation use
// (the simulator itself is deterministic and single-threaded).
#ifndef PSLLC_COMMON_LOG_H_
#define PSLLC_COMMON_LOG_H_

#include <functional>
#include <sstream>
#include <string>

namespace psllc {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

[[nodiscard]] const char* to_string(LogLevel level);

/// Process-wide logging configuration.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static Logger& instance();

  // The level is a static member so PSLLC_LOG's test is one inline load,
  // not a call to instance().
  static void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] static LogLevel level() { return level_; }
  [[nodiscard]] static bool enabled(LogLevel level) { return level >= level_; }

  /// Replaces the output sink (default: stderr). Pass nullptr to restore the
  /// default. Returns the previous sink so tests can scope their capture.
  Sink set_sink(Sink sink);

  void write(LogLevel level, const std::string& message);

 private:
  Logger();
  static inline LogLevel level_ = LogLevel::kWarn;
  Sink sink_;
};

}  // namespace psllc

#define PSLLC_LOG(level, ...)                                      \
  do {                                                             \
    if (::psllc::Logger::enabled(level)) {                         \
      std::ostringstream psllc_log_oss_;                           \
      psllc_log_oss_ << __VA_ARGS__;                               \
      ::psllc::Logger::instance().write(level, psllc_log_oss_.str()); \
    }                                                              \
  } while (false)

#define PSLLC_TRACE(...) PSLLC_LOG(::psllc::LogLevel::kTrace, __VA_ARGS__)
#define PSLLC_DEBUG(...) PSLLC_LOG(::psllc::LogLevel::kDebug, __VA_ARGS__)
#define PSLLC_INFO(...) PSLLC_LOG(::psllc::LogLevel::kInfo, __VA_ARGS__)
#define PSLLC_WARN(...) PSLLC_LOG(::psllc::LogLevel::kWarn, __VA_ARGS__)
#define PSLLC_ERROR(...) PSLLC_LOG(::psllc::LogLevel::kError, __VA_ARGS__)

#endif  // PSLLC_COMMON_LOG_H_
