/**
 * @file
 * Compiler-wide observability, part 1: hierarchical phase tracing.
 *
 * A TraceSpan is an RAII region ("the sema phase", "one ILP solve").
 * Spans nest naturally per thread; every completed span is recorded in
 * the process-global Tracer, which can export the run as Chrome
 * trace-event JSON (open in Perfetto or chrome://tracing; see
 * docs/observability.md).
 *
 * All instrumentation is gated on the process-wide obs::enabled() flag
 * (set by `longnail --trace-json/--stats`, tests, or benches). When the
 * flag is off a TraceSpan construction is a single relaxed atomic load
 * and the span records nothing, so instrumented code paths stay at
 * near-zero cost -- bench_compile_time guards this property.
 */

#ifndef LONGNAIL_OBS_OBS_HH
#define LONGNAIL_OBS_OBS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace longnail {
namespace obs {

namespace detail {
extern std::atomic<bool> enabledFlag;
} // namespace detail

/** Process-wide instrumentation switch; default off. */
inline bool
enabled()
{
    return detail::enabledFlag.load(std::memory_order_relaxed);
}

void setEnabled(bool on);

/** RAII enable/restore for tests and benches. */
class ScopedEnable
{
  public:
    explicit ScopedEnable(bool on = true) : prev_(enabled())
    {
        setEnabled(on);
    }
    ~ScopedEnable() { setEnabled(prev_); }
    ScopedEnable(const ScopedEnable &) = delete;
    ScopedEnable &operator=(const ScopedEnable &) = delete;

  private:
    bool prev_;
};

/** Peak resident set size of this process in KiB (0 if unavailable). */
uint64_t peakRssKb();

/** Microseconds since the process trace epoch (the first steady_clock
 * reading any instrumentation took). One shared epoch makes timestamps
 * from different threads directly comparable -- the serve trace relies
 * on that to nest request spans over worker-thread phase spans. */
double traceNowUs();
double traceTimeUs(std::chrono::steady_clock::time_point tp);

/** Small dense id of the calling thread (1 = first observing thread);
 * the `tid` that TraceSpan records. Exposed so synthetic events (the
 * server's queue-wait span) land on the recording thread's track. */
uint32_t traceThreadId();

/**
 * Request identity of the current thread (docs/observability.md).
 *
 * `rid` is the end-to-end request id: minted by the one-shot CLI
 * ("r1"), per sorted batch slot ("r<n>", deterministic under any
 * --jobs value), by a --connect client ("c<pid>-<n>") or by the
 * server for requests that arrived without one ("s<n>"). `traceId` /
 * `parentSpan` carry a client-minted trace context across the wire so
 * server-side spans can point back at the client span that caused
 * them.
 */
struct RequestContext
{
    std::string rid;
    std::string traceId;
    std::string parentSpan;
};

/** The calling thread's current request context (empty by default). */
const RequestContext &currentRequest();

/** The current thread's request id ("" outside any RequestScope). */
const std::string &currentRid();

/**
 * RAII request-context scope. Every TraceSpan completed, log record
 * written and flight-recorder note taken on this thread while the
 * scope is alive is tagged with the scope's rid -- that is how one
 * `grep rid=...` reconstructs a request across handler and worker
 * threads. Scopes nest (LIFO, per thread); a worker task re-enters
 * the handler's scope by constructing one with the same ids.
 */
class RequestScope
{
  public:
    explicit RequestScope(std::string rid, std::string trace_id = "",
                          std::string parent_span = "");
    ~RequestScope();
    RequestScope(const RequestScope &) = delete;
    RequestScope &operator=(const RequestScope &) = delete;

  private:
    RequestContext prev_;
};

/** One completed span. */
struct TraceEvent
{
    std::string name;
    /** Microseconds since the process trace epoch. */
    double startUs = 0.0;
    double durUs = 0.0;
    /** Small dense thread id (1 = first tracing thread). */
    uint32_t tid = 0;
    /** Nesting depth at the time the span was open (0 = top level). */
    int depth = 0;
    /** Extra key/value annotations ("args" in the trace viewer). */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Process-global span collector. Thread-safe: spans from concurrent
 * compiles interleave by thread id. Completed children are recorded
 * before their parent (the parent's destructor runs last), which the
 * Chrome trace format represents naturally via ts/dur containment.
 */
class Tracer
{
  public:
    static Tracer &instance();

    void record(TraceEvent event);
    void clear();
    /** Snapshot of all completed spans so far. */
    std::vector<TraceEvent> events() const;

    /**
     * Serialize all completed spans as a Chrome trace-event JSON
     * document ({"traceEvents": [...]}, "X" complete events, ts/dur in
     * microseconds).
     */
    std::string toChromeJson() const;

  private:
    Tracer() = default;
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
};

/**
 * RAII trace region. Construction is a no-op unless obs::enabled();
 * destruction records the completed span into Tracer::instance().
 */
class TraceSpan
{
  public:
    explicit TraceSpan(std::string name);
    ~TraceSpan();
    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attach a key/value annotation (no-op on inactive spans). */
    void arg(const std::string &key, const std::string &value);

    bool active() const { return active_; }

  private:
    bool active_ = false;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    int depth_ = 0;
    std::vector<std::pair<std::string, std::string>> args_;
};

} // namespace obs
} // namespace longnail

#endif // LONGNAIL_OBS_OBS_HH
