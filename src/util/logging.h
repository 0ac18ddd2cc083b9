#pragma once
// Minimal leveled logger. A single global logger writes to stderr; verbosity
// is set programmatically with Logger::set_level (no command-line option or
// environment variable reads it).

#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

namespace landau {

enum class LogLevel : int { Error = 0, Warn = 1, Info = 2, Debug = 3 };

/// Thread-safe global logger.
class Logger {
public:
  static Logger& instance();

  void set_level(LogLevel lvl) { level_ = lvl; }
  LogLevel level() const { return level_; }

  void write(LogLevel lvl, const std::string& msg);

private:
  Logger() = default;
  LogLevel level_ = LogLevel::Warn;
  std::mutex mutex_;
};

} // namespace landau

#define LANDAU_LOG(lvl, msg_stream)                                            \
  do {                                                                         \
    if (static_cast<int>(lvl) <=                                               \
        static_cast<int>(::landau::Logger::instance().level())) {              \
      std::ostringstream landau_log_os_;                                       \
      landau_log_os_ << msg_stream;                                            \
      ::landau::Logger::instance().write(lvl, landau_log_os_.str());           \
    }                                                                          \
  } while (0)

#define LANDAU_INFO(msg) LANDAU_LOG(::landau::LogLevel::Info, msg)
#define LANDAU_WARN(msg) LANDAU_LOG(::landau::LogLevel::Warn, msg)
#define LANDAU_DEBUG(msg) LANDAU_LOG(::landau::LogLevel::Debug, msg)
