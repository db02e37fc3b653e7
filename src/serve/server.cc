#include "serve/server.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>

#include "driver/cache.hh"
#include "obs/flightrec.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "support/failpoint.hh"

namespace longnail {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

long
elapsedMs(Clock::time_point since)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now() - since)
        .count();
}

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
    case RequestKind::Compile:
        return "compile";
    case RequestKind::Health:
        return "health";
    case RequestKind::Stats:
        return "stats";
    case RequestKind::Metrics:
        return "metrics";
    case RequestKind::Dump:
        return "dump";
    case RequestKind::Ping:
        return "ping";
    case RequestKind::Shutdown:
        return "shutdown";
    }
    return "unknown";
}

} // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)), memCache_(options_.memCacheEntries)
{
}

Server::~Server()
{
    for (int fd : drainPipe_)
        if (fd >= 0)
            ::close(fd);
}

void
Server::requestStop()
{
    // draining_ is set BEFORE the pipe write: anyone woken by the pipe
    // observes draining_ == true, so a recvFrame Timeout with the flag
    // clear is always a genuine idle timeout.
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true))
        return;
    if (drainPipe_[1] >= 0) {
        char byte = 'x';
        // Never drained: level-triggered so every poller, present and
        // future, sees it.
        (void)!::write(drainPipe_[1], &byte, 1);
    }
}

bool
Server::run(ServeStats &stats, std::string &error)
{
    if (options_.socketPath.empty()) {
        error = "serve: no socket path";
        return false;
    }
    if (::pipe(drainPipe_) != 0) {
        error = "serve: cannot create drain pipe";
        return false;
    }
    if (!listener_.open(options_.socketPath, error))
        return false;

    // The metrics registry backs the `stats` request type; serving
    // without it would make that reply permanently empty.
    obs::setEnabled(true);

    if (!options_.logPath.empty()) {
        std::string log_error;
        if (!obs::EventLog::instance().open(options_.logPath, log_error)) {
            error = "serve: " + log_error;
            return false;
        }
        ownsEventLog_ = true;
    }
    if (!options_.postmortemDir.empty()) {
        obs::flightrec::setPostmortemDir(options_.postmortemDir);
        obs::flightrec::installCrashHandler();
    }

    freeSlots_ = options_.jobs;
    if (freeSlots_ == 0)
        freeSlots_ = std::max(1u, std::thread::hardware_concurrency());
    ready_.store(true);
    obs::count("serve.started");
    obs::logEvent(obs::LogLevel::Info, "serve.start",
                  {{"socket", options_.socketPath},
                   {"jobs", std::to_string(freeSlots_)},
                   {"admissionMax",
                    std::to_string(options_.admissionMax)}});
    obs::flightrec::note("serve", "start " + options_.socketPath);

    while (!draining_.load()) {
        if (options_.stopToken && options_.stopToken->stopRequested())
            requestStop();
        if (draining_.load())
            break;

        net::Connection conn;
        net::IoStatus st = listener_.accept(conn, 100, drainPipe_[0]);
        if (st == net::IoStatus::Ok) {
            connections2_.fetch_add(1);
            obs::count("serve.connections");
            auto state = std::make_unique<ConnState>();
            ConnState *raw = state.get();
            {
                std::lock_guard<std::mutex> lock(connMutex_);
                connections_.push_back(std::move(state));
            }
            raw->thread =
                std::thread([this, raw, c = std::move(conn)]() mutable {
                    handleConnection(std::move(c));
                    raw->done.store(true);
                });
        } else {
            // Timeout doubles as the periodic tick: reap finished
            // connection threads so a long-lived server does not
            // accumulate joined-out handles.
            reapConnections(false);
            if (st == net::IoStatus::Error && draining_.load())
                break;
        }
    }

    shutdownPhase(stats);
    return true;
}

void
Server::shutdownPhase(ServeStats &stats)
{
    requestStop(); // idempotent; covers the `shutdown`-request path
    listener_.close();

    // Grace period: give in-flight compiles a chance to finish on
    // their own before cancelling their tokens mid-pipeline.
    auto grace_start = Clock::now();
    while (inFlight_.load() > 0 &&
           elapsedMs(grace_start) < options_.drainGraceMs)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    {
        std::lock_guard<std::mutex> lock(tokensMutex_);
        for (CancelToken *token : activeTokens_)
            token->cancel();
    }

    // Handlers blocked on recvFrame woke via the drain pipe and reply
    // LN3112; handlers waiting for a compile slot get one in turn, stop
    // at the first phase boundary and reply LN3112 too.
    reapConnections(true);

    memCache_.clear();
    if (!options_.cacheDir.empty())
        stats.tmpFilesRemoved =
            driver::cacheCleanupTmp(options_.cacheDir);

    stats.connections = connections2_.load();
    stats.requests = requests_.load();
    stats.compiles = compiles_.load();
    stats.memHits = memCache_.hits();
    stats.diskHits = diskHits_.load();
    stats.shed = shed_.load();
    stats.deadlineMisses = deadlineMisses_.load();
    stats.drainRejects = drainRejects_.load();
    stats.protocolErrors = protocolErrors_.load();
    stats.idleTimeouts = idleTimeouts_.load();
    stats.injectedFaults = injectedFaults_.load();

    obs::logEvent(obs::LogLevel::Info, "serve.stop",
                  {{"requests", std::to_string(stats.requests)},
                   {"compiles", std::to_string(stats.compiles)},
                   {"shed", std::to_string(stats.shed)},
                   {"deadlineMisses",
                    std::to_string(stats.deadlineMisses)}});
    obs::flightrec::note("serve", "stop");

    // Observability artifacts are written after the last handler is
    // gone, so the trace and exposition are complete snapshots.
    if (!options_.tracePath.empty()) {
        std::ofstream out(options_.tracePath, std::ios::binary);
        if (out)
            out << obs::Tracer::instance().toChromeJson();
    }
    if (!options_.metricsPath.empty()) {
        std::ofstream out(options_.metricsPath, std::ios::binary);
        if (out)
            out << obs::Registry::instance().toPrometheus();
    }
    if (ownsEventLog_)
        obs::EventLog::instance().close();
}

void
Server::reapConnections(bool join_all)
{
    std::vector<std::unique_ptr<ConnState>> to_join;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        if (join_all) {
            to_join.swap(connections_);
        } else {
            for (size_t i = 0; i < connections_.size();) {
                // done is set by the thread body, possibly before the
                // accept loop assigned the thread member; only reap
                // once both are true.
                if (connections_[i]->done.load() &&
                    connections_[i]->thread.joinable()) {
                    to_join.push_back(std::move(connections_[i]));
                    connections_[i] = std::move(connections_.back());
                    connections_.pop_back();
                } else {
                    ++i;
                }
            }
        }
    }
    for (auto &state : to_join) {
        // join_all can race the accept loop's thread assignment; spin
        // briefly until the member is joinable.
        while (!state->thread.joinable())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        state->thread.join();
    }
}

void
Server::handleConnection(net::Connection conn)
{
    while (true) {
        std::string payload;
        int timeout =
            options_.idleTimeoutMs > 0 ? int(options_.idleTimeoutMs) : -1;
        net::IoStatus st = conn.recvFrame(payload, timeout,
                                          maxRequestFrame, drainPipe_[0]);
        switch (st) {
        case net::IoStatus::Ok:
            break;
        case net::IoStatus::Timeout:
            if (draining_.load()) {
                drainRejects_.fetch_add(1);
                obs::count("serve.drain_rejects");
                conn.sendFrame(emitErrorReply(
                    codeDraining, "server draining; connection closed",
                    ""));
                return;
            }
            idleTimeouts_.fetch_add(1);
            obs::count("serve.idle_timeouts");
            conn.sendFrame(emitErrorReply(
                codeIdleTimeout,
                "idle timeout after " +
                    std::to_string(options_.idleTimeoutMs) + " ms",
                ""));
            return;
        case net::IoStatus::Closed:
            return;
        case net::IoStatus::Truncated:
            // Peer vanished mid-frame; nothing to reply to.
            protocolErrors_.fetch_add(1);
            obs::count("serve.protocol_errors");
            return;
        case net::IoStatus::Oversize:
            // The length prefix was read but the payload was not: the
            // stream is no longer frame-aligned, so reply and close.
            protocolErrors_.fetch_add(1);
            obs::count("serve.protocol_errors");
            conn.sendFrame(emitErrorReply(
                codeOversize,
                "request frame exceeds " +
                    std::to_string(maxRequestFrame) + " bytes",
                ""));
            return;
        case net::IoStatus::Error:
            return;
        }

        std::string parse_error;
        auto request = parseRequest(payload, parse_error);
        if (!request) {
            // Framing is intact (we read a complete frame), so the
            // connection stays usable after the error reply.
            protocolErrors_.fetch_add(1);
            obs::count("serve.protocol_errors");
            if (conn.sendFrame(emitErrorReply(
                    codeProtocol, "bad request: " + parse_error, "")) !=
                net::IoStatus::Ok)
                return;
            continue;
        }

        requests_.fetch_add(1);
        obs::count("serve.requests");

        // Adopt the client's request id, or mint a server-side one so
        // every request is greppable in the event log either way.
        if (request->rid.empty())
            request->rid = "s" + std::to_string(ridCounter_.fetch_add(1) + 1);
        obs::RequestScope scope(request->rid);
        obs::logEvent(obs::LogLevel::Info, "serve.request",
                      {{"kind", requestKindName(request->kind)},
                       {"id", request->id}});
        std::string outcome = "ok";
        std::string reply = handleRequest(*request, outcome);
        obs::logEvent(obs::LogLevel::Info, "serve.reply",
                      {{"kind", requestKindName(request->kind)},
                       {"outcome", outcome}});
        if (conn.sendFrame(reply) != net::IoStatus::Ok)
            return;
        if (request->kind == RequestKind::Shutdown)
            return;
    }
}

std::string
Server::handleRequest(const Request &request, std::string &outcome)
{
    switch (request.kind) {
    case RequestKind::Ping: {
        json::Value obj = json::Value::object();
        obj.set("type", "pong");
        if (!request.id.empty())
            obj.set("id", request.id);
        obj.set("rid", request.rid);
        return obj.emit();
    }
    case RequestKind::Health: {
        json::Value obj = json::Value::object();
        obj.set("type", "health");
        if (!request.id.empty())
            obj.set("id", request.id);
        obj.set("rid", request.rid);
        obj.set("status", draining_.load() ? "draining" : "ok");
        obj.set("inFlight", uint64_t(inFlight_.load()));
        obj.set("admissionMax", uint64_t(options_.admissionMax));
        obj.set("memCacheEntries", uint64_t(memCache_.size()));
        return obj.emit();
    }
    case RequestKind::Stats: {
        json::Value obj = json::Value::object();
        obj.set("type", "stats");
        if (!request.id.empty())
            obj.set("id", request.id);
        obj.set("rid", request.rid);
        auto metrics = json::parse(obs::Registry::instance().toJson());
        obj.set("metrics", metrics ? std::move(*metrics)
                                   : json::Value::object());
        json::Value mc = json::Value::object();
        mc.set("entries", uint64_t(memCache_.size()));
        mc.set("hits", memCache_.hits());
        mc.set("misses", memCache_.misses());
        obj.set("memCache", std::move(mc));
        obj.set("inFlight", uint64_t(inFlight_.load()));
        {
            std::lock_guard<std::mutex> lock(slotMutex_);
            obj.set("queueDepth", uint64_t(slotWaiters_));
        }
        obj.set("admissionMax", uint64_t(options_.admissionMax));
        obj.set("draining", draining_.load());
        // Lifetime tallies, mirrored live (ServeStats only materializes
        // at shutdown; --top needs them while serving).
        json::Value server = json::Value::object();
        server.set("connections", connections2_.load());
        server.set("requests", requests_.load());
        server.set("compiles", compiles_.load());
        server.set("memHits", memCache_.hits());
        server.set("diskHits", diskHits_.load());
        server.set("shed", shed_.load());
        server.set("deadlineMisses", deadlineMisses_.load());
        server.set("drainRejects", drainRejects_.load());
        server.set("protocolErrors", protocolErrors_.load());
        server.set("idleTimeouts", idleTimeouts_.load());
        server.set("injectedFaults", injectedFaults_.load());
        obj.set("server", std::move(server));
        return obj.emit();
    }
    case RequestKind::Metrics: {
        json::Value obj = json::Value::object();
        obj.set("type", "metrics");
        if (!request.id.empty())
            obj.set("id", request.id);
        obj.set("rid", request.rid);
        obj.set("text", obs::Registry::instance().toPrometheus());
        return obj.emit();
    }
    case RequestKind::Dump: {
        obs::flightrec::note("dump", "on-demand dump request");
        std::string path = obs::flightrec::writePostmortem("dump");
        json::Value obj = json::Value::object();
        obj.set("type", "dump");
        if (!request.id.empty())
            obj.set("id", request.id);
        obj.set("rid", request.rid);
        if (!path.empty())
            obj.set("path", path);
        obj.set("text",
                obs::flightrec::renderEvents(obs::flightrec::snapshot()));
        return obj.emit();
    }
    case RequestKind::Shutdown: {
        requestStop();
        json::Value obj = json::Value::object();
        obj.set("type", "ok");
        if (!request.id.empty())
            obj.set("id", request.id);
        obj.set("rid", request.rid);
        obj.set("message", "draining");
        return obj.emit();
    }
    case RequestKind::Compile:
        return handleCompile(request, outcome);
    }
    return emitErrorReply(codeProtocol, "unreachable", request.id);
}

std::string
Server::handleCompile(const Request &request, std::string &outcome)
{
    // The request span covers the full server-side handling; when the
    // client sent a trace context, its ids ride along as args so the
    // merged Chrome trace shows this span under the client's span.
    obs::TraceSpan span("request");
    span.arg("kind", "compile");
    if (!request.id.empty())
        span.arg("id", request.id);
    if (!request.traceId.empty()) {
        span.arg("trace", request.traceId);
        span.arg("parent", request.spanId);
    }
    auto start = Clock::now();
    std::string tier;
    std::string reply = compileReply(request, outcome, tier);
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    // Latency split by cache tier for served summaries and by outcome
    // for everything else -- the exposition --top reads p50/p95/p99
    // from.
    obs::observe("serve.request_ms", ms);
    std::string split = outcome == "ok" ? tier : outcome;
    if (!split.empty())
        obs::observe(("serve.request_ms." + split).c_str(), ms);
    obs::count(("serve.outcome." + outcome).c_str());
    span.arg("outcome", outcome);
    if (!tier.empty())
        span.arg("tier", tier);
    return reply;
}

std::string
Server::compileReply(const Request &request, std::string &outcome,
                     std::string &tier)
{
    if (draining_.load()) {
        drainRejects_.fetch_add(1);
        obs::count("serve.drain_rejects");
        outcome = "drain";
        return emitErrorReply(codeDraining,
                              "server draining; no new work accepted",
                              request.id, -1, request.rid);
    }

    // Per-request fault isolation: the injected serve fault produces a
    // structured error reply for THIS request and nothing else -- the
    // soak test hammers this while concurrent requests succeed.
    if (failpoint::fire("serve") != failpoint::Mode::Off) {
        injectedFaults_.fetch_add(1);
        obs::count("serve.injected_faults");
        outcome = "fault";
        return emitErrorReply(codeInjected,
                              "injected fault at failpoint 'serve'",
                              request.id, -1, request.rid);
    }

    // Admission control: bounded concurrency, shed beyond it.
    unsigned admitted;
    {
        obs::TraceSpan admission_span("admission");
        admitted = inFlight_.fetch_add(1) + 1;
        admission_span.arg(
            "admitted", admitted <= options_.admissionMax ? "yes" : "no");
    }
    if (admitted > options_.admissionMax) {
        inFlight_.fetch_sub(1);
        shed_.fetch_add(1);
        obs::count("serve.shed");
        obs::flightrec::note("shed", "admission over " +
                                         std::to_string(
                                             options_.admissionMax));
        outcome = "shed";
        return emitErrorReply(
            codeOverloaded,
            "server overloaded (" +
                std::to_string(options_.admissionMax) +
                " requests in flight); retry after " +
                std::to_string(options_.retryAfterMs) + " ms",
            request.id, options_.retryAfterMs, request.rid);
    }
    struct AdmissionGuard
    {
        std::atomic<unsigned> &count;
        ~AdmissionGuard() { count.fetch_sub(1); }
    } admission_guard{inFlight_};

    // Per-request deadline token, registered so drain can cancel it.
    CancelToken token;
    long deadline_ms = -1;
    if (request.deadlineMs >= 0)
        deadline_ms = request.deadlineMs;
    else if (options_.defaultDeadlineMs > 0)
        deadline_ms = options_.defaultDeadlineMs;
    if (deadline_ms >= 0)
        token.setDeadlineAfterMs(deadline_ms);
    {
        std::lock_guard<std::mutex> lock(tokensMutex_);
        activeTokens_.insert(&token);
    }
    struct TokenGuard
    {
        Server &server;
        CancelToken &token;
        ~TokenGuard()
        {
            std::lock_guard<std::mutex> lock(server.tokensMutex_);
            server.activeTokens_.erase(&token);
        }
    } token_guard{*this, token};

    // Tiered lookup: memory, disk, fresh compile.
    std::string key =
        driver::cacheKey(request.source, request.target, request.options);
    {
        obs::TraceSpan cache_span("cache.lookup");
        if (auto hit = memCache_.lookup(key)) {
            obs::count("serve.mem_hits");
            cache_span.arg("tier", "mem");
            outcome = "ok";
            tier = "mem";
            return emitResultReply(*hit, request.id, "mem", request.rid);
        }
        if (!options_.cacheDir.empty()) {
            driver::CompileSummary cached;
            if (driver::cacheLoad(options_.cacheDir, key, cached) ==
                driver::CacheLookup::Hit) {
                diskHits_.fetch_add(1);
                obs::count("serve.disk_hits");
                cache_span.arg("tier", "disk");
                auto shared = std::make_shared<driver::CompileSummary>(
                    std::move(cached));
                memCache_.insert(key, shared);
                outcome = "ok";
                tier = "disk";
                return emitResultReply(*shared, request.id, "disk",
                                       request.rid);
            }
            // Corrupt/injected lookups fall through to a fresh compile
            // (fail-soft, same as batch mode).
        }
        cache_span.arg("tier", "miss");
    }

    // Compile slot: at most `jobs` fresh compiles run at once; the rest
    // wait here. The token is already registered, so drain's cancel
    // reaches a waiting request too.
    std::shared_ptr<driver::CompileSummary> summary;
    {
        {
            obs::TraceSpan wait_span("queue.wait");
            auto wait_start = Clock::now();
            std::unique_lock<std::mutex> lock(slotMutex_);
            ++slotWaiters_;
            slotFreed_.wait(lock, [this] { return freeSlots_ > 0; });
            --slotWaiters_;
            --freeSlots_;
            lock.unlock();
            obs::observe("serve.queue_wait_ms",
                         std::chrono::duration<double, std::milli>(
                             Clock::now() - wait_start)
                             .count());
        }
        struct SlotGuard
        {
            Server &server;
            ~SlotGuard()
            {
                {
                    std::lock_guard<std::mutex> lock(server.slotMutex_);
                    ++server.freeSlots_;
                }
                server.slotFreed_.notify_one();
            }
        } slot_guard{*this};

        driver::CompileOptions opts = request.options;
        opts.cancel = &token;
        summary = std::make_shared<driver::CompileSummary>(
            driver::summarize(
                driver::compile(request.source, request.target, opts)));
    }
    compiles_.fetch_add(1);
    obs::count("serve.compiles");

    if (summary->ok) {
        if (!options_.cacheDir.empty())
            driver::cacheStore(options_.cacheDir, key, *summary,
                               options_.cacheMaxEntries);
        memCache_.insert(key, summary);
        outcome = "ok";
        tier = "fresh";
        return emitResultReply(*summary, request.id, "fresh",
                               request.rid);
    }

    // A compile that failed BECAUSE its token stopped it is a
    // serve-layer outcome, not a source-code failure: report it as a
    // structured timeout/drain error. A successful compile is returned
    // as a result even if the deadline expired at the last instant --
    // the work is done, discarding it would only waste it.
    if (token.deadlineExpired()) {
        deadlineMisses_.fetch_add(1);
        obs::count("serve.deadline_misses");
        obs::flightrec::note("deadline",
                             "LN3111 after " +
                                 std::to_string(deadline_ms) + " ms");
        obs::flightrec::writePostmortem("deadline");
        outcome = "deadline";
        return emitErrorReply(
            codeDeadline,
            "deadline of " + std::to_string(deadline_ms) +
                " ms exceeded; compile cancelled at a phase boundary",
            request.id, -1, request.rid);
    }
    if (token.stopRequested()) {
        drainRejects_.fetch_add(1);
        obs::count("serve.drain_rejects");
        outcome = "drain";
        return emitErrorReply(codeDraining,
                              "compile cancelled: server draining",
                              request.id, -1, request.rid);
    }
    // Ordinary compile failure: a full structured result with
    // diagnostics, exactly what the one-shot CLI would report.
    outcome = "compile-error";
    tier = "fresh";
    return emitResultReply(*summary, request.id, "fresh", request.rid);
}

} // namespace serve
} // namespace longnail
