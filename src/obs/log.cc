#include "obs/log.hh"

#include "obs/obs.hh"
#include "support/json.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

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

/** The flight recorder: the newest flightrec::capacity events of the
 * process, in one ring. */
struct Ring
{
    std::mutex mutex;
    flightrec::Event slots[flightrec::capacity];
    size_t next = 0;    ///< slot the next event goes into
    size_t filled = 0;  ///< min(events recorded, capacity)
    uint64_t seq = 0;   ///< events recorded so far
};

Ring &
ring()
{
    static Ring *r = new Ring; // leaked: dtor order vs threads
    return *r;
}

/** Write @p text at offset @p len of the zeroed @p cap-byte field
 * @p dst, truncating so that its last byte stays NUL; returns the new
 * length. */
size_t
put(char *dst, size_t cap, size_t len, std::string_view text)
{
    size_t n = std::min(text.size(), cap - 1 - len);
    std::memcpy(dst + len, text.data(), n);
    return len + n;
}

/** logEvent()'s always-on half: append one event to the ring. */
void
record(const char *event, std::initializer_list<LogField> fields)
{
    flightrec::Event e;
    e.tUs = traceNowUs();
    e.tid = traceThreadId();
    put(e.name, sizeof(e.name), 0, event);
    put(e.rid, sizeof(e.rid), 0, currentRid());
    size_t len = 0; // the fields as `k=v k=v`
    for (const LogField &field : fields) {
        if (len > 0)
            len = put(e.msg, sizeof(e.msg), len, " ");
        len = put(e.msg, sizeof(e.msg), len, field.first);
        len = put(e.msg, sizeof(e.msg), len, "=");
        len = put(e.msg, sizeof(e.msg), len, field.second);
    }
    Ring &r = ring();
    std::lock_guard<std::mutex> lock(r.mutex);
    e.seq = ++r.seq;
    r.slots[r.next] = e;
    r.next = (r.next + 1) % flightrec::capacity;
    if (r.filled < flightrec::capacity)
        ++r.filled;
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

void
EventLog::setRateLimit(uint64_t max_per_sec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    rateLimit_ = max_per_sec;
}

void
EventLog::write(LogLevel level, const char *event,
                std::initializer_list<LogField> fields)
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
EventLog::emitLocked(LogLevel level, const char *event,
                     std::initializer_list<LogField> fields)
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
    record(event, fields);
    EventLog::instance().write(level, event, fields);
}

namespace flightrec {

namespace {

struct PostmortemState
{
    std::mutex mutex;
    std::string dir;
    std::map<std::string, int> perReason;
    int total = 0;
    /** The file each (reason, rid) wrote; at most maxTotal entries. */
    std::map<std::pair<std::string, std::string>, std::string> written;
};

PostmortemState &
postmortemState()
{
    static PostmortemState *s = new PostmortemState;
    return *s;
}

constexpr int maxPerReason = 4;
constexpr int maxTotal = 64;

} // namespace

std::vector<Event>
snapshot()
{
    Ring &r = ring();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<Event> events;
    events.reserve(r.filled);
    size_t oldest = (r.next + capacity - r.filled) % capacity;
    for (size_t i = 0; i < r.filled; ++i)
        events.push_back(r.slots[(oldest + i) % capacity]);
    return events;
}

std::string
renderEvents(const std::vector<Event> &events)
{
    std::string out;
    out.reserve(events.size() * 96);
    char buf[256];
    for (const Event &e : events) {
        std::snprintf(buf, sizeof(buf),
                      "#%llu t=%.0fus tid=%u [%s]%s%s %s\n",
                      (unsigned long long)e.seq, e.tUs, e.tid, e.name,
                      e.rid[0] ? " rid=" : "", e.rid, e.msg);
        out += buf;
    }
    return out;
}

void
setPostmortemDir(const std::string &dir)
{
    PostmortemState &s = postmortemState();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.dir = dir;
    s.written.clear();
}

std::string
writePostmortem(const std::string &reason)
{
    PostmortemState &s = postmortemState();
    const std::string &rid = currentRid();
    std::string path;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (s.dir.empty())
            return "";
        // One request leaves one file per reason: a second postmortem
        // for it (a deadline both the compile and the server record)
        // replaces the first, holding everything the first held.
        auto key = std::make_pair(reason, rid);
        auto it = rid.empty() ? s.written.end() : s.written.find(key);
        if (it != s.written.end()) {
            path = it->second;
        } else {
            int &count = s.perReason[reason];
            if (count >= maxPerReason || s.total >= maxTotal)
                return "";
            ++count;
            ++s.total;
            char name[160];
            long pid =
#if defined(__unix__) || defined(__APPLE__)
                long(getpid());
#else
                0;
#endif
            std::snprintf(name, sizeof(name),
                          "/longnail-postmortem-%s-%010.0f-%ld-%d.log",
                          reason.c_str(), traceNowUs(), pid, s.total);
            path = s.dir + name;
            if (!rid.empty())
                s.written.emplace(key, path);
        }
    }
    std::vector<Event> events = snapshot();
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return "";
    std::fprintf(file, "# longnail flight-recorder postmortem\n");
    std::fprintf(file, "# reason: %s\n", reason.c_str());
    if (!rid.empty())
        std::fprintf(file, "# rid: %s\n", rid.c_str());
    std::fprintf(file, "# t: %.0fus since trace epoch\n", traceNowUs());
    std::fprintf(file, "# events: %zu\n", events.size());
    std::string body = renderEvents(events);
    std::fwrite(body.data(), 1, body.size(), file);
    std::fclose(file);
    return path;
}

namespace {

std::atomic<bool> crashHandlerInstalled{false};

extern "C" void
crashDump(int sig)
{
    // Async-signal-safety is deliberately traded for diagnostics here:
    // the process is already dying on a fatal signal, and a rare
    // deadlock in the handler only loses the dump we would otherwise
    // not have at all. Re-raise with default disposition either way.
    std::signal(sig, SIG_DFL);
    writePostmortem("crash");
    std::raise(sig);
}

} // namespace

void
installCrashHandler()
{
    if (crashHandlerInstalled.exchange(true))
        return;
    std::signal(SIGSEGV, crashDump);
    std::signal(SIGBUS, crashDump);
    std::signal(SIGFPE, crashDump);
    std::signal(SIGILL, crashDump);
    std::signal(SIGABRT, crashDump);
}

void
resetForTests()
{
    {
        Ring &r = ring();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.next = 0;
        r.filled = 0;
    }
    PostmortemState &s = postmortemState();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.perReason.clear();
    s.total = 0;
    s.written.clear();
}

} // namespace flightrec
} // namespace obs
} // namespace longnail
