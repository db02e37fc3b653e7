#include "obs/obs.hh"

#include <cstdio>
#include <cstring>

#include "support/json.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace longnail {
namespace obs {

namespace detail {
std::atomic<bool> enabledFlag{false};
} // namespace detail

void
setEnabled(bool on)
{
    detail::enabledFlag.store(on, std::memory_order_relaxed);
}

namespace {

/** Per-thread span nesting depth (top level = 0). */
thread_local int spanDepth = 0;

/** Small dense per-thread id, assigned on first tracing use. */
uint32_t
threadId()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t id = next.fetch_add(1);
    return id;
}

/** Process-wide trace epoch: the first steady_clock reading taken. */
std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

double
microsSince(std::chrono::steady_clock::time_point from,
            std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/** The calling thread's request context (mutable backing store). */
RequestContext &
threadRequest()
{
    thread_local RequestContext context;
    return context;
}

} // namespace

double
traceNowUs()
{
    return microsSince(traceEpoch(), std::chrono::steady_clock::now());
}

double
traceTimeUs(std::chrono::steady_clock::time_point tp)
{
    return microsSince(traceEpoch(), tp);
}

uint32_t
traceThreadId()
{
    return threadId();
}

const RequestContext &
currentRequest()
{
    return threadRequest();
}

const std::string &
currentRid()
{
    return threadRequest().rid;
}

RequestScope::RequestScope(std::string rid, std::string trace_id,
                           std::string parent_span)
    : prev_(threadRequest())
{
    RequestContext &context = threadRequest();
    context.rid = std::move(rid);
    context.traceId = std::move(trace_id);
    context.parentSpan = std::move(parent_span);
}

RequestScope::~RequestScope()
{
    threadRequest() = std::move(prev_);
}

uint64_t
peakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    return uint64_t(usage.ru_maxrss) / 1024; // bytes on macOS
#else
    return uint64_t(usage.ru_maxrss); // KiB on Linux
#endif
#else
    return 0;
#endif
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::record(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

std::string
Tracer::toChromeJson() const
{
    std::vector<TraceEvent> snapshot = events();
    std::string out = "{\"traceEvents\": [";
    bool first = true;
    char buf[64];
    for (const TraceEvent &e : snapshot) {
        if (!first)
            out += ",";
        first = false;
        out += "\n  {\"name\": \"" + json::escape(e.name) + "\"";
        out += ", \"ph\": \"X\", \"cat\": \"longnail\"";
        std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f", e.startUs);
        out += buf;
        std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f", e.durUs);
        out += buf;
        std::snprintf(buf, sizeof(buf),
                      ", \"pid\": 1, \"tid\": %u", e.tid);
        out += buf;
        if (!e.args.empty()) {
            out += ", \"args\": {";
            bool first_arg = true;
            for (const auto &[key, value] : e.args) {
                if (!first_arg)
                    out += ", ";
                first_arg = false;
                out += "\"" + json::escape(key) + "\": \"" +
                       json::escape(value) + "\"";
            }
            out += "}";
        }
        out += "}";
    }
    out += "\n]}\n";
    return out;
}

TraceSpan::TraceSpan(std::string name)
{
    if (!enabled())
        return;
    active_ = true;
    name_ = std::move(name);
    depth_ = spanDepth++;
    (void)traceEpoch(); // pin the epoch before taking the start stamp
    start_ = std::chrono::steady_clock::now();
}

TraceSpan::~TraceSpan()
{
    if (!active_)
        return;
    auto end = std::chrono::steady_clock::now();
    --spanDepth;
    TraceEvent event;
    event.name = std::move(name_);
    event.startUs = microsSince(traceEpoch(), start_);
    event.durUs = microsSince(start_, end);
    event.tid = threadId();
    event.depth = depth_;
    event.args = std::move(args_);
    // Tag the span with the active request id so spans from the
    // handler thread and the worker that ran the compile correlate.
    const std::string &rid = threadRequest().rid;
    if (!rid.empty())
        event.args.emplace_back("rid", rid);
    Tracer::instance().record(std::move(event));
}

void
TraceSpan::arg(const std::string &key, const std::string &value)
{
    if (active_)
        args_.emplace_back(key, value);
}

} // namespace obs
} // namespace longnail
