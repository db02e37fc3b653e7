#include "obs/log.hh"

#include "obs/obs.hh"
#include "support/json.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace longnail {
namespace obs {

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "info";
}

namespace {

/** Parse a $LONGNAIL_LOG_LEVEL value; default Info. */
LogLevel
parseLevel(const char *text)
{
    if (!text)
        return LogLevel::Info;
    if (std::strcmp(text, "debug") == 0)
        return LogLevel::Debug;
    if (std::strcmp(text, "warn") == 0)
        return LogLevel::Warn;
    if (std::strcmp(text, "error") == 0)
        return LogLevel::Error;
    return LogLevel::Info;
}

} // namespace

EventLog &
EventLog::instance()
{
    static EventLog log;
    return log;
}

bool
EventLog::open(const std::string &path, std::string &error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_) {
        if (file_ != stderr)
            std::fclose(file_);
        file_ = nullptr;
        active_.store(false, std::memory_order_relaxed);
    }
    if (path == "-") {
        file_ = stderr;
    } else {
        file_ = std::fopen(path.c_str(), "w");
        if (!file_) {
            error = "cannot open log file '" + path +
                    "': " + std::strerror(errno);
            return false;
        }
    }
    level_.store(int(parseLevel(std::getenv("LONGNAIL_LOG_LEVEL"))),
                 std::memory_order_relaxed);
    windows_.clear();
    // Publish last: writers check active() before taking the mutex.
    active_.store(true, std::memory_order_release);
    return true;
}

void
EventLog::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    active_.store(false, std::memory_order_relaxed);
    if (!file_)
        return;
    // Surface any counts still pending in open rate-limit windows.
    for (auto &[event, window] : windows_) {
        if (window.suppressed == 0)
            continue;
        std::fprintf(file_,
                     "{\"ts\":%.0f,\"lvl\":\"warn\","
                     "\"ev\":\"log.suppressed\",\"event\":\"%s\","
                     "\"dropped\":%llu}\n",
                     traceNowUs(), json::escape(event).c_str(),
                     (unsigned long long)window.suppressed);
        ++written_;
    }
    windows_.clear();
    std::fflush(file_);
    if (file_ != stderr)
        std::fclose(file_);
    file_ = nullptr;
}

void
EventLog::setLevel(LogLevel level)
{
    level_.store(int(level), std::memory_order_relaxed);
}

LogLevel
EventLog::level() const
{
    return LogLevel(level_.load(std::memory_order_relaxed));
}

void
EventLog::setRateLimit(uint64_t max_per_sec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    rateLimit_ = max_per_sec;
}

void
EventLog::write(LogLevel level, const std::string &event,
                const std::vector<LogField> &fields)
{
    if (!active())
        return;
    if (int(level) < level_.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!file_)
        return;
    if (rateLimit_ > 0) {
        Window &window = windows_[event];
        int64_t now_sec = int64_t(traceNowUs() / 1e6);
        if (now_sec != window.startSec) {
            // Window rolled: report what the old one dropped.
            if (window.suppressed > 0) {
                std::fprintf(file_,
                             "{\"ts\":%.0f,\"lvl\":\"warn\","
                             "\"ev\":\"log.suppressed\",\"event\":\"%s\","
                             "\"dropped\":%llu}\n",
                             traceNowUs(), json::escape(event).c_str(),
                             (unsigned long long)window.suppressed);
                ++written_;
            }
            window.startSec = now_sec;
            window.count = 0;
            window.suppressed = 0;
        }
        if (window.count >= rateLimit_) {
            ++window.suppressed;
            ++suppressed_;
            return;
        }
        ++window.count;
    }
    emitLocked(level, event, fields);
}

void
EventLog::emitLocked(LogLevel level, const std::string &event,
                     const std::vector<LogField> &fields)
{
    std::string line;
    line.reserve(96);
    char buf[48];
    std::snprintf(buf, sizeof(buf), "{\"ts\":%.0f", traceNowUs());
    line += buf;
    line += ",\"lvl\":\"";
    line += logLevelName(level);
    line += "\",\"ev\":\"";
    line += json::escape(event);
    line += "\"";
    const std::string &rid = currentRid();
    if (!rid.empty()) {
        line += ",\"rid\":\"";
        line += json::escape(rid);
        line += "\"";
    }
    for (const LogField &field : fields) {
        line += ",\"";
        line += json::escape(field.first);
        line += "\":\"";
        line += json::escape(field.second);
        line += "\"";
    }
    line += "}\n";
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fflush(file_);
    ++written_;
}

uint64_t
EventLog::linesWritten() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return written_;
}

uint64_t
EventLog::linesSuppressed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return suppressed_;
}

void
logEvent(LogLevel level, const char *event,
         std::initializer_list<LogField> fields)
{
    EventLog &log = EventLog::instance();
    if (!log.active())
        return;
    log.write(level, event, std::vector<LogField>(fields));
}

} // namespace obs
} // namespace longnail
