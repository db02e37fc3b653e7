#include "obs/flightrec.hh"

#include "obs/obs.hh"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace longnail {
namespace obs {
namespace flightrec {

namespace {

/** One thread's ring. Heap-allocated and registered globally while
 * its thread runs; shared with snapshot(), which may still be reading
 * it when the thread exits. */
struct ThreadBuf
{
    std::mutex mutex;
    Event ring[ringCapacity];
    size_t next = 0;    ///< slot the next event goes into
    size_t filled = 0;  ///< min(events recorded, ringCapacity)
};

bool
bySeq(const Event &a, const Event &b)
{
    return a.seq < b.seq;
}

struct Registry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuf>> buffers; ///< live threads
    /** The newest events of exited threads, in no particular order,
     * so a postmortem can still include what a finished worker or
     * connection handler saw. At most retiredCapacity; reserved so
     * that folding a ring in at thread exit never allocates. */
    std::vector<Event> retired;

    Registry() { retired.reserve(retiredCapacity + ringCapacity); }
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked: dtor order vs threads
    return *r;
}

std::atomic<uint64_t> nextSeq{1};

/** The calling thread's ring: registered on first note(), folded
 * into the retired ring and unregistered when the thread exits. */
struct ThreadRing
{
    std::shared_ptr<ThreadBuf> buf = std::make_shared<ThreadBuf>();

    ThreadRing()
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.buffers.push_back(buf);
    }
    ThreadRing(const ThreadRing &) = delete;
    ThreadRing &operator=(const ThreadRing &) = delete;

    ~ThreadRing()
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.buffers.erase(
            std::find(r.buffers.begin(), r.buffers.end(), buf));
        std::lock_guard<std::mutex> buf_lock(buf->mutex);
        r.retired.insert(r.retired.end(), buf->ring,
                         buf->ring + buf->filled);
        if (r.retired.size() > retiredCapacity) {
            std::sort(r.retired.begin(), r.retired.end(), bySeq);
            r.retired.erase(r.retired.begin(),
                            r.retired.end() - retiredCapacity);
        }
    }
};

ThreadBuf &
threadBuf()
{
    thread_local ThreadRing ring;
    return *ring.buf;
}

void
copyField(char *dst, size_t cap, const char *src)
{
    std::strncpy(dst, src, cap - 1);
    dst[cap - 1] = '\0';
}

struct PostmortemState
{
    std::mutex mutex;
    std::string dir;
    std::map<std::string, int> perReason;
    int total = 0;
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

void
note(const char *kind, const std::string &msg)
{
    ThreadBuf &buf = threadBuf();
    Event event;
    event.seq = nextSeq.fetch_add(1, std::memory_order_relaxed);
    event.tUs = traceNowUs();
    event.tid = traceThreadId();
    copyField(event.kind, sizeof(event.kind), kind ? kind : "");
    copyField(event.rid, sizeof(event.rid), currentRid().c_str());
    copyField(event.msg, sizeof(event.msg), msg.c_str());
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.ring[buf.next] = event;
    buf.next = (buf.next + 1) % ringCapacity;
    if (buf.filled < ringCapacity)
        ++buf.filled;
}

std::vector<Event>
snapshot()
{
    // Copy the live list and the retired ring in one critical section:
    // a thread that exits afterwards is read through its shared ring,
    // one that exited before is in the copy, never both.
    std::vector<std::shared_ptr<ThreadBuf>> buffers;
    std::vector<Event> events;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        buffers = r.buffers;
        events = r.retired;
    }
    for (const auto &buf : buffers) {
        std::lock_guard<std::mutex> lock(buf->mutex);
        for (size_t i = 0; i < buf->filled; ++i)
            events.push_back(buf->ring[i]);
    }
    std::sort(events.begin(), events.end(), bySeq);
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
                      (unsigned long long)e.seq, e.tUs, e.tid, e.kind,
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
}

std::string
postmortemDir()
{
    PostmortemState &s = postmortemState();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.dir;
}

std::string
writePostmortem(const std::string &reason)
{
    PostmortemState &s = postmortemState();
    std::string path;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (s.dir.empty())
            return "";
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
    }
    std::vector<Event> events = snapshot();
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return "";
    std::fprintf(file, "# longnail flight-recorder postmortem\n");
    std::fprintf(file, "# reason: %s\n", reason.c_str());
    const std::string &rid = currentRid();
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
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        for (const auto &buf : r.buffers) {
            std::lock_guard<std::mutex> buf_lock(buf->mutex);
            buf->next = 0;
            buf->filled = 0;
        }
        r.retired.clear();
    }
    PostmortemState &s = postmortemState();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.perReason.clear();
    s.total = 0;
}

} // namespace flightrec
} // namespace obs
} // namespace longnail
