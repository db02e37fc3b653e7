/**
 * @file
 * Compiler-wide observability, part 4: the always-on flight recorder.
 *
 * A crash, a deadline cancellation, or a TV refutation in a long-lived
 * `--serve` process needs context that the event log may not have (the
 * log is opt-in and leveled); the flight recorder always has the last
 * few hundred interesting moments per thread. Each thread owns a
 * fixed-size ring buffer of small POD events; note() stamps one in a
 * few instructions plus an uncontended per-thread lock. When a thread
 * exits, its events fold into one fixed-size ring of retired events
 * and its own ring is freed, so a server that starts a handler thread
 * per connection keeps a bounded recorder. Nothing ever leaves the
 * rings in steady state -- only a postmortem dump (crash
 * signal, LN3011 deadline cancellation, failpoint trip, LN4501 TV
 * refutation, or an explicit `dump` serve request) merges them into a
 * timestamped report.
 *
 * Why a per-thread mutex instead of a pure lock-free ring: the writer
 * is the owning thread and essentially never blocks (the lock is
 * contended only during a snapshot, which is rare and slow anyway),
 * and it keeps the recorder exact under tsan, which gates the serve
 * and obs suites. The fast path is the same shape either way: bump a
 * slot index, memcpy ~160 bytes.
 *
 * Postmortem files land in the configured directory (unset = disabled)
 * as `longnail-postmortem-<reason>-<stamp>-<pid>-<n>.log`, capped per
 * reason and in total so a crash loop cannot fill a disk.
 */

#ifndef LONGNAIL_OBS_FLIGHTREC_HH
#define LONGNAIL_OBS_FLIGHTREC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace longnail {
namespace obs {
namespace flightrec {

/** One recorded moment. POD; fixed-width fields so a ring slot is one
 * struct assignment and a crash-time dump needs no allocation. */
struct Event
{
    uint64_t seq = 0;   ///< global order of recording (1 = first)
    double tUs = 0.0;   ///< microseconds since the process trace epoch
    uint32_t tid = 0;   ///< obs::traceThreadId() of the recording thread
    char kind[24] = {}; ///< short category ("phase", "deadline", ...)
    char rid[24] = {};  ///< request id active on the thread, if any
    char msg[104] = {}; ///< free-form detail (truncated to fit)
};

/** Events retained per thread (oldest overwritten first). */
constexpr size_t ringCapacity = 256;

/** Events retained from threads that have exited (newest kept). */
constexpr size_t retiredCapacity = 4 * ringCapacity;

/** Record one event on the calling thread's ring. Always on. */
void note(const char *kind, const std::string &msg);

/** All retained events across every live thread and the retired
 * ring, oldest first (by seq). */
std::vector<Event> snapshot();

/** Render @p events as the postmortem text format (one line per
 * event: `#<seq> t=<us> tid=<n> [<kind>] rid=<rid> <msg>`). */
std::string renderEvents(const std::vector<Event> &events);

/**
 * Directory postmortem files are written to; "" (the default)
 * disables writing -- note() keeps recording either way.
 */
void setPostmortemDir(const std::string &dir);
std::string postmortemDir();

/**
 * Dump the current snapshot to a new postmortem file.
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

/** Test hook: clear every ring (the retired one too) and the
 * postmortem file counters. */
void resetForTests();

} // namespace flightrec
} // namespace obs
} // namespace longnail

#endif // LONGNAIL_OBS_FLIGHTREC_HH
