#include "vmmc/util/log.h"

namespace vmmc {

namespace {
LogLevel g_level = LogLevel::kWarn;
const std::int64_t* g_sim_now = nullptr;

std::string_view LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return g_level; }

void SetLogLevel(LogLevel level) { g_level = level; }

LogLevel ParseLogLevel(std::string_view name) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return LogLevel::kWarn;
}

void SetLogSimClock(const std::int64_t* now) { g_sim_now = now; }

const std::int64_t* GetLogSimClock() { return g_sim_now; }

namespace detail {
void EmitLog(LogLevel level, std::string_view component, const std::string& msg) {
  if (g_sim_now != nullptr) {
    std::fprintf(stderr, "[@%lldns] [%.*s] %.*s: %s\n",
                 static_cast<long long>(*g_sim_now),
                 static_cast<int>(LevelName(level).size()),
                 LevelName(level).data(), static_cast<int>(component.size()),
                 component.data(), msg.c_str());
    return;
  }
  std::fprintf(stderr, "[%.*s] %.*s: %s\n", static_cast<int>(LevelName(level).size()),
               LevelName(level).data(), static_cast<int>(component.size()),
               component.data(), msg.c_str());
}
}  // namespace detail

}  // namespace vmmc
