/**
 * @file
 * Compiler-wide observability, part 3: the event path.
 *
 * obs::logEvent() is the one way to record an event: a phase end, a
 * cancellation, a TV refutation, a failpoint trip, a served request.
 * Every call does two things.
 *
 *  - It appends one fixed-size record (sequence number, time, thread,
 *    request id, event name, fields rendered as `k=v`) to the flight
 *    recorder: one process-wide ring holding the newest
 *    flightrec::capacity records of every thread, always on. Nothing
 *    leaves the ring in steady state; a postmortem (crash signal,
 *    deadline cancellation, failpoint trip, TV refutation, or an
 *    explicit `dump` serve request) renders it into a timestamped
 *    report.
 *  - When a sink is open (`--log=FILE|-`), it writes one leveled JSONL
 *    record -- one JSON object per line -- to a file or stderr.
 *
 * Both carry the request id of the calling thread's obs::RequestScope,
 * and both use the Tracer's clock (microseconds since the process
 * trace epoch), so
 *
 *   grep '"rid":"c4711-1"' serve.log
 *
 * reconstructs one request end to end: client send, server dispatch,
 * admission, cache tier, every pipeline phase, reply outcome.
 *
 * The ring records every call. The sink drops records below its level
 * and rate-limits per event name (a 1-second window; excess records
 * are counted and surfaced as one `log.suppressed` record when the
 * window rolls) so a pathological client cannot turn the log into a
 * disk-filling amplifier. The traffic is small -- one record per
 * pipeline phase, a few per request -- so one mutex guards the ring.
 *
 * Why a mutex instead of a lock-free ring: the recorder stays exact
 * under tsan, which gates the serve and obs suites, and the critical
 * section is one ~180-byte struct copy.
 *
 * Log output and postmortems are advisory: they are never part of the
 * deterministic artifact surface (timestamps and thread interleavings
 * vary run to run), which is why the determinism suites diff artifacts
 * and stdout but not log files.
 *
 * Postmortem files land in the configured directory (unset = disabled)
 * as `longnail-postmortem-<reason>-<stamp>-<pid>-<n>.log`, capped per
 * reason and in total so a crash loop cannot fill a disk.
 */

#ifndef LONGNAIL_OBS_LOG_HH
#define LONGNAIL_OBS_LOG_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace longnail {
namespace obs {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3 };

const char *logLevelName(LogLevel level);

/** One key/value field of an event (values are logged as JSON
 * strings; callers format numbers themselves). */
using LogField = std::pair<std::string, std::string>;

/**
 * Record one event: into the flight-recorder ring always, and into the
 * JSONL sink when one is open and its level and rate limit allow. The
 * current thread's request id (obs::currentRid) is attached
 * automatically.
 */
void logEvent(LogLevel level, const char *event,
              std::initializer_list<LogField> fields = {});

/** The JSONL sink of the event path; logEvent() writes to it. */
class EventLog
{
  public:
    static EventLog &instance();

    /**
     * Open the log sink: a file path, or "-" for stderr. Honors
     * $LONGNAIL_LOG_LEVEL (debug|info|warn|error; default info).
     * @return false with @p error set when the file cannot be opened.
     */
    bool open(const std::string &path, std::string &error);

    /** Flush and close; events go to the ring only again. */
    void close();

    /** True when a sink is open (one relaxed atomic load). */
    bool active() const
    {
        return active_.load(std::memory_order_relaxed);
    }

    void setLevel(LogLevel level);

    /** Per-event-name records allowed per one-second window;
     * 0 = unlimited. Default 1000. */
    void setRateLimit(uint64_t max_per_sec);

    uint64_t linesSuppressed() const;

  private:
    friend void logEvent(LogLevel level, const char *event,
                         std::initializer_list<LogField> fields);

    EventLog() = default;

    /** Write one JSONL record (drops below-level and rate-limited
     * ones). */
    void write(LogLevel level, const char *event,
               std::initializer_list<LogField> fields);

    /** Per-event-name rate-limit window. */
    struct Window
    {
        int64_t startSec = -1;
        uint64_t count = 0;
        uint64_t suppressed = 0;
    };

    void emitLocked(LogLevel level, const char *event,
                    std::initializer_list<LogField> fields);

    std::atomic<bool> active_{false};
    std::atomic<int> level_{int(LogLevel::Info)};
    mutable std::mutex mutex_;
    std::FILE *file_ = nullptr; // owned unless == stderr
    uint64_t rateLimit_ = 1000;
    std::map<std::string, Window> windows_;
    uint64_t suppressed_ = 0;
};

namespace flightrec {

/** One recorded event. POD; fixed-width fields so a ring slot is one
 * struct assignment and a crash-time dump needs no allocation. */
struct Event
{
    uint64_t seq = 0;   ///< global order of recording (1 = first)
    double tUs = 0.0;   ///< microseconds since the process trace epoch
    uint32_t tid = 0;   ///< obs::traceThreadId() of the recording thread
    char name[24] = {}; ///< the logEvent() event name
    char rid[24] = {};  ///< request id active on the thread, if any
    char msg[104] = {}; ///< the fields as `k=v k=v` (truncated to fit)
};

/** Records the ring keeps, across all threads (oldest overwritten
 * first). */
constexpr size_t capacity = 1024;

/** The ring's records, oldest first. */
std::vector<Event> snapshot();

/** Render @p events as the postmortem text format (one line per
 * event: `#<seq> t=<us> tid=<n> [<name>] rid=<rid> <msg>`). */
std::string renderEvents(const std::vector<Event> &events);

/**
 * Directory postmortem files are written to; "" (the default)
 * disables writing -- the ring keeps recording either way.
 */
void setPostmortemDir(const std::string &dir);

/**
 * Dump the current snapshot to a new postmortem file. At most 4 files
 * per reason and 64 in all are written. A second postmortem for the
 * same reason and request id overwrites that request's file with the
 * newer snapshot and does not count against the caps, so one request
 * leaves one file per reason.
 * @param reason short slug naming the trigger ("crash", "deadline",
 *        "failpoint", "tv-refuted", "dump"); becomes part of the file
 *        name and the header.
 * @return the file path, or "" when disabled, capped out, or failed.
 */
std::string writePostmortem(const std::string &reason);

/**
 * Install best-effort crash handlers (SIGSEGV, SIGBUS, SIGFPE,
 * SIGILL, SIGABRT) that dump a "crash" postmortem before re-raising
 * with default disposition. Idempotent.
 */
void installCrashHandler();

/** Test hook: empty the ring and clear the postmortem file counters. */
void resetForTests();

} // namespace flightrec
} // namespace obs
} // namespace longnail

#endif // LONGNAIL_OBS_LOG_HH
