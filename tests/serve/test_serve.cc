/**
 * @file
 * In-process compile-server tests (docs/compile-server.md): request
 * dispatch, the tiered artifact cache, per-request deadlines,
 * admission control, compile slots, fault isolation, hostile clients
 * against a live daemon, graceful drain, and the concurrent soak with
 * failpoints armed that pins "a bad request never kills the server".
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "driver/isax_catalog.hh"
#include "obs/flightrec.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "serve/server.hh"
#include "support/failpoint.hh"
#include "support/json.hh"

using namespace longnail;
namespace fs = std::filesystem;

namespace {

/** Server running on its own thread against a per-test socket. */
struct TestServer
{
    serve::ServeOptions options;
    std::unique_ptr<serve::Server> server;
    std::thread thread;
    serve::ServeStats stats;
    bool runOk = false;
    std::string runError;

    explicit TestServer(const std::string &name)
    {
        options.socketPath =
            ::testing::TempDir() + "/ln_" + name + ".sock";
        fs::remove(options.socketPath);
        options.jobs = 2;
        options.drainGraceMs = 500;
    }

    void
    start()
    {
        server = std::make_unique<serve::Server>(options);
        thread = std::thread(
            [this] { runOk = server->run(stats, runError); });
        for (int i = 0; i < 5000 && !server->ready(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_TRUE(server->ready()) << runError;
    }

    void
    stop()
    {
        if (!thread.joinable())
            return;
        server->requestStop();
        thread.join();
    }

    ~TestServer() { stop(); }
};

net::Connection
connectTo(const TestServer &ts)
{
    std::string error;
    net::Connection conn =
        net::connectUnix(ts.options.socketPath, error);
    EXPECT_TRUE(conn.valid()) << error;
    return conn;
}

/** Send one request, wait for one reply (generous timeout: compiles
 * queue behind each other on small pools). */
std::optional<serve::Reply>
roundTrip(net::Connection &conn, const serve::Request &request,
          int timeout_ms = 120000)
{
    if (conn.sendFrame(serve::emitRequest(request)) !=
        net::IoStatus::Ok)
        return std::nullopt;
    std::string payload;
    if (conn.recvFrame(payload, timeout_ms, serve::maxReplyFrame) !=
        net::IoStatus::Ok)
        return std::nullopt;
    std::string error;
    return serve::parseReply(payload, error);
}

serve::Request
compileRequest(const std::string &isax_name,
               const std::string &core = "VexRiscv",
               long deadline_ms = -1)
{
    const auto *isax = catalog::findIsax(isax_name);
    EXPECT_NE(isax, nullptr);
    serve::Request req;
    req.kind = serve::RequestKind::Compile;
    req.id = isax_name + "@" + core;
    req.unitName = isax_name;
    req.source = isax->source;
    req.target = isax->target;
    req.options.coreName = core;
    req.deadlineMs = deadline_ms;
    return req;
}

serve::Request
simpleRequest(serve::RequestKind kind, const std::string &id = "")
{
    serve::Request req;
    req.kind = kind;
    req.id = id;
    return req;
}

} // namespace

TEST(Serve, PingHealthStatsReplies)
{
    TestServer ts("phs");
    ts.start();
    net::Connection conn = connectTo(ts);

    auto pong =
        roundTrip(conn, simpleRequest(serve::RequestKind::Ping, "p1"));
    ASSERT_TRUE(pong);
    EXPECT_EQ(pong->type, "pong");
    EXPECT_EQ(pong->id, "p1");

    auto health =
        roundTrip(conn, simpleRequest(serve::RequestKind::Health));
    ASSERT_TRUE(health);
    EXPECT_EQ(health->type, "health");
    EXPECT_EQ(health->raw.getString("status"), "ok");

    auto stats =
        roundTrip(conn, simpleRequest(serve::RequestKind::Stats));
    ASSERT_TRUE(stats);
    EXPECT_EQ(stats->type, "stats");
    const json::Value *metrics = stats->raw.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_TRUE(metrics->isObject());
    EXPECT_NE(metrics->find("counters"), nullptr);
}

TEST(Serve, CompileFreshThenMemoryHitIsIdentical)
{
    TestServer ts("mem");
    ts.start();
    net::Connection conn = connectTo(ts);

    auto first = roundTrip(conn, compileRequest("autoinc"));
    ASSERT_TRUE(first);
    ASSERT_EQ(first->type, "result");
    EXPECT_TRUE(first->summary.ok);
    EXPECT_EQ(first->cacheTier, "fresh");
    ASSERT_FALSE(first->summary.units.empty());

    auto second = roundTrip(conn, compileRequest("autoinc"));
    ASSERT_TRUE(second);
    ASSERT_EQ(second->type, "result");
    EXPECT_EQ(second->cacheTier, "mem");
    // Replay is byte-identical to the fresh compile.
    EXPECT_EQ(second->summary.units[0].systemVerilog,
              first->summary.units[0].systemVerilog);
    EXPECT_EQ(second->summary.configYaml, first->summary.configYaml);
}

TEST(Serve, DiskCacheTierServesAcrossServerRestarts)
{
    std::string cache_dir = ::testing::TempDir() + "/ln_serve_disk";
    fs::remove_all(cache_dir);
    fs::create_directories(cache_dir);

    {
        TestServer ts("disk1");
        ts.options.cacheDir = cache_dir;
        ts.start();
        net::Connection conn = connectTo(ts);
        auto fresh = roundTrip(conn, compileRequest("autoinc"));
        ASSERT_TRUE(fresh);
        EXPECT_EQ(fresh->cacheTier, "fresh");
    }
    {
        // A new server (cold memory cache) replays from disk.
        TestServer ts("disk2");
        ts.options.cacheDir = cache_dir;
        ts.start();
        net::Connection conn = connectTo(ts);
        auto warm = roundTrip(conn, compileRequest("autoinc"));
        ASSERT_TRUE(warm);
        ASSERT_EQ(warm->type, "result");
        EXPECT_EQ(warm->cacheTier, "disk");
        EXPECT_TRUE(warm->summary.ok);
    }
}

TEST(Serve, CompileFailureIsStructuredAndServerSurvives)
{
    TestServer ts("fail");
    ts.start();
    net::Connection conn = connectTo(ts);

    serve::Request bad;
    bad.kind = serve::RequestKind::Compile;
    bad.id = "bad";
    bad.unitName = "broken";
    bad.source = "InstructionSet Broken { this is not CoreDSL }";
    auto reply = roundTrip(conn, bad);
    ASSERT_TRUE(reply);
    ASSERT_EQ(reply->type, "result");
    EXPECT_FALSE(reply->summary.ok);
    EXPECT_FALSE(reply->summary.diags.empty());
    EXPECT_FALSE(reply->summary.errorsText.empty());

    // The daemon shrugged it off.
    auto pong =
        roundTrip(conn, simpleRequest(serve::RequestKind::Ping));
    ASSERT_TRUE(pong);
    EXPECT_EQ(pong->type, "pong");
}

/**
 * One fault, one outcome: a transient scheduler fault fails the served
 * compile that hits it with exactly the diagnostics a library compile
 * gets under the same fault, and the resubmission compiles fresh.
 */
TEST(Serve, TransientFaultFailsLikeTheLibraryThenResubmissionSucceeds)
{
    serve::Request request = compileRequest("autoinc");
    driver::CompileSummary local;
    {
        failpoint::Scoped fault("sched", failpoint::Mode::Transient, 1);
        local = driver::summarize(driver::compile(
            request.source, request.target, request.options));
    }
    ASSERT_FALSE(local.ok);

    TestServer ts("transient");
    ts.start();
    failpoint::Scoped fault("sched", failpoint::Mode::Transient, 1);
    net::Connection conn = connectTo(ts);
    auto first = roundTrip(conn, request);
    ASSERT_TRUE(first);
    ASSERT_EQ(first->type, "result");
    EXPECT_FALSE(first->summary.ok);
    EXPECT_EQ(first->cacheTier, "fresh");
    EXPECT_EQ(first->summary.errorsText, local.errorsText);
    ASSERT_EQ(first->summary.diags.size(), local.diags.size());
    for (size_t i = 0; i < local.diags.size(); ++i) {
        EXPECT_EQ(first->summary.diags[i].severity,
                  local.diags[i].severity);
        EXPECT_EQ(first->summary.diags[i].code, local.diags[i].code);
        EXPECT_EQ(first->summary.diags[i].rendered,
                  local.diags[i].rendered);
    }

    auto second = roundTrip(conn, request);
    ASSERT_TRUE(second);
    ASSERT_EQ(second->type, "result");
    EXPECT_TRUE(second->summary.ok) << second->summary.errorsText;
    EXPECT_EQ(second->cacheTier, "fresh");
}

TEST(Serve, DeadlineExceededWhileConcurrentRequestCompletes)
{
    TestServer ts("deadline");
    ts.start();

    // Distinct cores => distinct cache keys: the expired request can
    // never be satisfied from a cache entry the healthy one stored.
    std::optional<serve::Reply> late, healthy;
    std::thread late_thread([&] {
        net::Connection conn = connectTo(ts);
        late = roundTrip(conn, compileRequest("autoinc", "ORCA", 0));
    });
    std::thread healthy_thread([&] {
        net::Connection conn = connectTo(ts);
        healthy = roundTrip(conn, compileRequest("autoinc", "VexRiscv"));
    });
    late_thread.join();
    healthy_thread.join();

    ASSERT_TRUE(late);
    EXPECT_EQ(late->type, "error");
    EXPECT_EQ(late->code, serve::codeDeadline);
    ASSERT_TRUE(healthy);
    ASSERT_EQ(healthy->type, "result");
    EXPECT_TRUE(healthy->summary.ok);
}

TEST(Serve, AdmissionControlShedsWithRetryHint)
{
    TestServer ts("shed");
    ts.options.admissionMax = 0; // shed every compile, deterministically
    ts.options.retryAfterMs = 77;
    ts.start();
    net::Connection conn = connectTo(ts);

    auto reply = roundTrip(conn, compileRequest("autoinc"));
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->type, "error");
    EXPECT_EQ(reply->code, serve::codeOverloaded);
    EXPECT_EQ(reply->retryAfterMs, 77);

    // Non-compile requests are not subject to admission control.
    auto pong =
        roundTrip(conn, simpleRequest(serve::RequestKind::Ping));
    ASSERT_TRUE(pong);
    EXPECT_EQ(pong->type, "pong");
}

TEST(Serve, ServeFailpointIsIsolatedToOneRequest)
{
    TestServer ts("failpoint");
    ts.start();
    net::Connection conn = connectTo(ts);

    {
        failpoint::Scoped armed("serve", failpoint::Mode::Fail);
        auto reply = roundTrip(conn, compileRequest("autoinc"));
        ASSERT_TRUE(reply);
        EXPECT_EQ(reply->type, "error");
        EXPECT_EQ(reply->code, serve::codeInjected);
    }
    // Disarmed: the very same request now compiles fine.
    auto ok = roundTrip(conn, compileRequest("autoinc"));
    ASSERT_TRUE(ok);
    ASSERT_EQ(ok->type, "result");
    EXPECT_TRUE(ok->summary.ok);
}

TEST(Serve, GarbageJsonGetsProtocolErrorAndConnectionSurvives)
{
    TestServer ts("garbage");
    ts.start();
    net::Connection conn = connectTo(ts);

    ASSERT_EQ(conn.sendFrame("{{{ definitely not json"),
              net::IoStatus::Ok);
    std::string payload;
    ASSERT_EQ(conn.recvFrame(payload, 10000, serve::maxReplyFrame),
              net::IoStatus::Ok);
    std::string error;
    auto reply = serve::parseReply(payload, error);
    ASSERT_TRUE(reply) << error;
    EXPECT_EQ(reply->type, "error");
    EXPECT_EQ(reply->code, serve::codeProtocol);

    // Framing is intact, so the connection keeps working.
    auto pong =
        roundTrip(conn, simpleRequest(serve::RequestKind::Ping));
    ASSERT_TRUE(pong);
    EXPECT_EQ(pong->type, "pong");
}

TEST(Serve, OversizeFrameGetsErrorThenClose)
{
    TestServer ts("oversize");
    ts.start();
    net::Connection conn = connectTo(ts);

    // Hand-written hostile prefix claiming ~4 GiB.
    uint32_t hostile = 0xFFFFFFF0u;
    ASSERT_EQ(::write(conn.fd(), &hostile, 4), 4);
    std::string payload;
    ASSERT_EQ(conn.recvFrame(payload, 10000, serve::maxReplyFrame),
              net::IoStatus::Ok);
    std::string error;
    auto reply = serve::parseReply(payload, error);
    ASSERT_TRUE(reply) << error;
    EXPECT_EQ(reply->type, "error");
    EXPECT_EQ(reply->code, serve::codeOversize);
    // The stream is desynchronized; the server closes it.
    EXPECT_EQ(conn.recvFrame(payload, 10000, serve::maxReplyFrame),
              net::IoStatus::Closed);
}

TEST(Serve, SilentClientGetsIdleTimeout)
{
    TestServer ts("idle");
    ts.options.idleTimeoutMs = 100;
    ts.start();
    net::Connection conn = connectTo(ts);

    std::string payload;
    ASSERT_EQ(conn.recvFrame(payload, 10000, serve::maxReplyFrame),
              net::IoStatus::Ok);
    std::string error;
    auto reply = serve::parseReply(payload, error);
    ASSERT_TRUE(reply) << error;
    EXPECT_EQ(reply->type, "error");
    EXPECT_EQ(reply->code, serve::codeIdleTimeout);
    EXPECT_EQ(conn.recvFrame(payload, 10000, serve::maxReplyFrame),
              net::IoStatus::Closed);
}

TEST(Serve, DrainAnswersBlockedClientsAndExitsCleanly)
{
    TestServer ts("drain");
    ts.start();
    net::Connection idle_client = connectTo(ts);
    // Complete one round trip so the connection is accepted and its
    // handler is parked in recvFrame before the drain begins (a
    // connection still in the listen backlog would just be reset).
    auto pong = roundTrip(idle_client,
                          simpleRequest(serve::RequestKind::Ping));
    ASSERT_TRUE(pong);

    ts.server->requestStop();
    // The blocked receive wakes via the drain pipe and gets a
    // structured "draining" reply instead of a hangup.
    std::string payload;
    ASSERT_EQ(
        idle_client.recvFrame(payload, 10000, serve::maxReplyFrame),
        net::IoStatus::Ok);
    std::string error;
    auto reply = serve::parseReply(payload, error);
    ASSERT_TRUE(reply) << error;
    EXPECT_EQ(reply->type, "error");
    EXPECT_EQ(reply->code, serve::codeDraining);

    ts.thread.join();
    EXPECT_TRUE(ts.runOk) << ts.runError;
    EXPECT_EQ(ts.stats.connections, 1u);
    // The socket file is gone after a clean drain.
    EXPECT_FALSE(fs::exists(ts.options.socketPath));
}

TEST(Serve, ShutdownRequestDrainsTheServer)
{
    TestServer ts("shutdown");
    ts.start();
    net::Connection conn = connectTo(ts);

    auto reply =
        roundTrip(conn, simpleRequest(serve::RequestKind::Shutdown));
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->type, "ok");
    ts.thread.join();
    EXPECT_TRUE(ts.runOk) << ts.runError;
    EXPECT_FALSE(fs::exists(ts.options.socketPath));
}

TEST(Serve, AtMostJobsCompilesRunAtOnce)
{
    obs::ScopedEnable on;
    obs::Tracer::instance().clear();
    TestServer ts("jobs1");
    ts.options.jobs = 1;
    ts.options.memCacheEntries = 0;
    ts.start();

    // Three cores => three cache keys => three fresh compiles, sent at
    // once to a server with a single compile slot.
    const std::vector<std::string> cores = {"VexRiscv", "ORCA",
                                            "Piccolo"};
    std::vector<std::optional<serve::Reply>> replies(cores.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < cores.size(); ++i)
        clients.emplace_back([&, i] {
            serve::Request request =
                compileRequest("sqrt_tightly", cores[i]);
            request.options.optLevel = 1;
            net::Connection conn = connectTo(ts);
            replies[i] = roundTrip(conn, request);
        });
    for (auto &client : clients)
        client.join();
    {
        // Idle again: the stats reply reports an empty slot queue.
        net::Connection conn = connectTo(ts);
        auto stats =
            roundTrip(conn, simpleRequest(serve::RequestKind::Stats));
        ASSERT_TRUE(stats);
        ASSERT_NE(stats->raw.find("queueDepth"), nullptr);
        EXPECT_EQ(stats->raw.getNumber("queueDepth", -1.0), 0.0);
    }
    ts.stop();

    for (size_t i = 0; i < cores.size(); ++i) {
        ASSERT_TRUE(replies[i]) << cores[i];
        ASSERT_EQ(replies[i]->type, "result") << cores[i];
        EXPECT_TRUE(replies[i]->summary.ok) << cores[i];
    }
    EXPECT_EQ(ts.stats.compiles, 3u);

    std::vector<obs::TraceEvent> compiles;
    size_t queue_waits = 0;
    for (const auto &e : obs::Tracer::instance().events()) {
        if (e.name == "compile")
            compiles.push_back(e);
        if (e.name == "queue.wait")
            ++queue_waits;
    }
    ASSERT_EQ(compiles.size(), 3u);
    for (size_t a = 0; a < compiles.size(); ++a)
        for (size_t b = a + 1; b < compiles.size(); ++b) {
            const obs::TraceEvent &x = compiles[a], &y = compiles[b];
            EXPECT_TRUE(y.startUs >= x.startUs + x.durUs ||
                        x.startUs >= y.startUs + y.durUs)
                << "compiles " << a << " and " << b << " overlap";
        }
    EXPECT_EQ(queue_waits, 3u);
}

TEST(Serve, FlightRecorderStaysBoundedAcrossConnections)
{
    // One connection per compile, as `--connect` clients make them:
    // every compile notes its phases on a handler thread that then
    // exits.
    obs::flightrec::resetForTests();
    TestServer ts("flightrec");
    ts.options.memCacheEntries = 0;
    ts.start();
    const int connections = 300;
    for (int i = 0; i < connections; ++i) {
        serve::Request request = compileRequest("autoinc");
        request.rid = "fr" + std::to_string(i);
        net::Connection conn = connectTo(ts);
        auto reply = roundTrip(conn, request);
        ASSERT_TRUE(reply) << request.rid;
        ASSERT_EQ(reply->type, "result") << request.rid;
    }
    ts.stop();
    EXPECT_EQ(ts.stats.compiles, uint64_t(connections));

    // Every handler and the server thread have exited; only this
    // thread still owns a ring.
    auto events = obs::flightrec::snapshot();
    EXPECT_LE(events.size(), obs::flightrec::retiredCapacity +
                                 obs::flightrec::ringCapacity);
    // The retired ring keeps the newest events: the last compile's.
    bool last_phase_kept = false;
    for (const auto &e : events)
        last_phase_kept |= std::string(e.kind) == "phase" &&
                           std::string(e.rid) ==
                               "fr" + std::to_string(connections - 1);
    EXPECT_TRUE(last_phase_kept);
}

TEST(Serve, EveryCompileOutcomeReleasesItsSlot)
{
    TestServer ts("slotrelease");
    ts.options.jobs = 1;
    ts.start();
    net::Connection conn = connectTo(ts);
    auto send = [&](const serve::Request &request) {
        auto reply = roundTrip(conn, request, 60000);
        if (!reply) {
            // A leaked slot also blocks the drain, so stop() would
            // never return: report and end the test process here.
            ADD_FAILURE() << "no reply to '" << request.id
                          << "' within 60 s: a compile slot leaked";
            std::_Exit(1);
        }
        return reply;
    };

    // A source error, a scheduler fault and a deadline miss each end a
    // compile that held the only slot; the next compile must get it.
    serve::Request bad;
    bad.kind = serve::RequestKind::Compile;
    bad.id = "bad";
    bad.unitName = "broken";
    bad.source = "InstructionSet Broken { this is not CoreDSL }";
    auto parse_error = send(bad);
    ASSERT_TRUE(parse_error);
    ASSERT_EQ(parse_error->type, "result");
    EXPECT_FALSE(parse_error->summary.ok);
    {
        failpoint::Scoped fault("sched", failpoint::Mode::Fail);
        auto sched_error = send(compileRequest("autoinc"));
        ASSERT_TRUE(sched_error);
        ASSERT_EQ(sched_error->type, "result");
        EXPECT_FALSE(sched_error->summary.ok);
    }
    auto late = send(compileRequest("autoinc", "ORCA", 0));
    ASSERT_TRUE(late);
    EXPECT_EQ(late->type, "error");
    EXPECT_EQ(late->code, serve::codeDeadline);

    auto ok = send(compileRequest("autoinc"));
    ASSERT_TRUE(ok) << "the healthy compile never got the slot";
    ASSERT_EQ(ok->type, "result");
    EXPECT_TRUE(ok->summary.ok) << ok->summary.errorsText;

    auto stats = send(simpleRequest(serve::RequestKind::Stats));
    ASSERT_TRUE(stats);
    EXPECT_EQ(stats->raw.getNumber("queueDepth", -1.0), 0.0);
    EXPECT_EQ(stats->raw.getNumber("inFlight", -1.0), 0.0);
    ts.stop();
    EXPECT_EQ(ts.stats.compiles, 4u);
}

TEST(Serve, DrainCancelsRequestsWaitingForACompileSlot)
{
    TestServer ts("slotdrain");
    ts.options.jobs = 1;
    ts.options.drainGraceMs = 0;
    ts.start();

    // Eight cache keys => eight fresh compiles behind a single slot.
    std::vector<serve::Request> requests;
    for (unsigned opt : {0u, 1u})
        for (const char *core :
             {"VexRiscv", "ORCA", "Piccolo", "PicoRV32"}) {
            serve::Request request = compileRequest("sqrt_tightly", core);
            request.options.optLevel = opt;
            request.options.validate = true;
            requests.push_back(request);
        }
    std::vector<std::optional<serve::Reply>> replies(requests.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < requests.size(); ++i)
        clients.emplace_back([&, i] {
            net::Connection conn = connectTo(ts);
            replies[i] = roundTrip(conn, requests[i]);
        });

    // Drain once the server has received every compile request and at
    // least two of them wait for the slot. The lifetime request tally
    // counts the stats polls too.
    bool waiting = false;
    {
        net::Connection conn = connectTo(ts);
        for (unsigned polls = 1; polls <= 6000 && !waiting; ++polls) {
            auto stats = roundTrip(
                conn, simpleRequest(serve::RequestKind::Stats));
            if (!stats)
                break;
            const json::Value *server = stats->raw.find("server");
            double received =
                server ? server->getNumber("requests", 0.0) - polls : 0.0;
            waiting = received >= double(requests.size()) &&
                      stats->raw.getNumber("queueDepth", 0.0) >= 2.0;
            if (!waiting)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        }
    }
    ts.server->requestStop();
    for (auto &client : clients)
        client.join();
    ts.thread.join();
    ASSERT_TRUE(waiting) << "never saw two requests wait for the slot";
    EXPECT_TRUE(ts.runOk) << ts.runError;

    // Every client gets an answer: a result if its compile finished
    // before the cancel, else LN3112. The drain cancels the compile in
    // the slot and every request still waiting for it: each takes the
    // slot in turn and stops at the first phase boundary ("compile
    // cancelled"). The cancel follows the last poll by far less than a
    // compile, so the two waiters seen there are among them.
    size_t cancelled = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(replies[i]) << requests[i].id;
        if (replies[i]->type == "result") {
            EXPECT_TRUE(replies[i]->summary.ok) << requests[i].id;
            continue;
        }
        EXPECT_EQ(replies[i]->type, "error") << requests[i].id;
        EXPECT_EQ(replies[i]->code, serve::codeDraining)
            << requests[i].id << ": " << replies[i]->message;
        if (replies[i]->message.find("cancelled") != std::string::npos)
            ++cancelled;
    }
    EXPECT_GE(cancelled, 2u);
    EXPECT_GE(ts.stats.drainRejects, cancelled);
}

TEST(Serve, QueueWaitIsAScopedSpanOnTheHandlerThread)
{
    obs::ScopedEnable on;
    obs::Tracer::instance().clear();
    obs::Registry::instance().clear();
    TestServer ts("queuewait");
    ts.options.jobs = 1;
    ts.start();

    // Two fresh compiles at once behind one slot, then a memory hit
    // each, which never waits for a slot.
    const std::vector<std::string> rids = {"q1", "q2"};
    const std::vector<std::string> cores = {"VexRiscv", "ORCA"};
    std::vector<std::thread> clients;
    for (size_t i = 0; i < rids.size(); ++i)
        clients.emplace_back([&, i] {
            serve::Request request =
                compileRequest("sqrt_tightly", cores[i]);
            request.options.optLevel = 1;
            request.rid = rids[i];
            net::Connection conn = connectTo(ts);
            auto fresh = roundTrip(conn, request);
            EXPECT_TRUE(fresh && fresh->cacheTier == "fresh") << rids[i];
            auto hit = roundTrip(conn, request);
            EXPECT_TRUE(hit && hit->cacheTier == "mem") << rids[i];
        });
    for (auto &client : clients)
        client.join();
    ts.stop();

    auto rid_of = [](const obs::TraceEvent &e) {
        for (const auto &[key, value] : e.args)
            if (key == "rid")
                return value;
        return std::string();
    };
    double wait_us = 0.0;
    for (const std::string &rid : rids) {
        std::vector<obs::TraceEvent> requests, waits, compiles;
        for (const auto &e : obs::Tracer::instance().events()) {
            if (rid_of(e) != rid)
                continue;
            if (e.name == "request")
                requests.push_back(e);
            else if (e.name == "queue.wait")
                waits.push_back(e);
            else if (e.name == "compile")
                compiles.push_back(e);
        }
        ASSERT_EQ(requests.size(), 2u) << rid;
        ASSERT_EQ(waits.size(), 1u) << rid;
        ASSERT_EQ(compiles.size(), 1u) << rid;

        // The wait and then the compile run inside the first request's
        // span, on its thread.
        const obs::TraceEvent &request =
            requests[0].startUs <= requests[1].startUs ? requests[0]
                                                       : requests[1];
        const obs::TraceEvent &wait = waits[0], &compile = compiles[0];
        EXPECT_EQ(wait.tid, request.tid) << rid;
        EXPECT_EQ(compile.tid, request.tid) << rid;
        EXPECT_GT(wait.depth, request.depth) << rid;
        EXPECT_GE(wait.startUs, request.startUs) << rid;
        EXPECT_LE(wait.startUs + wait.durUs, compile.startUs) << rid;
        EXPECT_LE(compile.startUs + compile.durUs,
                  request.startUs + request.durUs)
            << rid;
        wait_us += wait.durUs;
    }
    // serve.queue_wait_ms observes the interval the spans enclose.
    obs::HistogramStats waited =
        obs::Registry::instance().histograms().at("serve.queue_wait_ms");
    EXPECT_EQ(waited.count, 2u);
    EXPECT_LE(waited.sum * 1000.0, wait_us + 1e-3);
    obs::Tracer::instance().clear();
    obs::Registry::instance().clear();
}

/**
 * The headline robustness soak (ISSUE acceptance): 8 concurrent
 * clients x 26 requests with failpoints armed -- injected serve
 * faults, injected transient scheduler faults, hostile frames, expired
 * deadlines -- and the invariant is absolute: every request gets a
 * reply, the daemon never dies, and the post-drain state is clean.
 */
TEST(ServeSoak, ConcurrentClientsWithFaultInjection)
{
    std::string cache_dir = ::testing::TempDir() + "/ln_soak_cache";
    fs::remove_all(cache_dir);
    fs::create_directories(cache_dir);

    TestServer ts("soak");
    ts.options.cacheDir = cache_dir;
    ts.options.memCacheEntries = 8;
    ts.options.admissionMax = 16;
    ts.options.idleTimeoutMs = 60000;
    ts.start();

    // Armed for the entire soak: the first 20 compile requests trip
    // the serve failpoint (LN3904 replies), and the first 10 scheduler
    // runs fail with LN2901 (compile-error results; still replies).
    failpoint::Scoped serve_fault("serve", failpoint::Mode::Transient,
                                  20);
    failpoint::Scoped sched_fault("sched", failpoint::Mode::Transient,
                                  10);

    constexpr int kClients = 8;
    constexpr int kRequests = 26; // 208 total
    std::atomic<int> replies{0};
    std::atomic<int> failures{0};

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            net::Connection conn = connectTo(ts);
            for (int r = 0; r < kRequests; ++r) {
                std::optional<serve::Reply> reply;
                switch (r % 4) {
                case 0:
                    reply = roundTrip(
                        conn, compileRequest(
                                  (c + r) % 2 ? "autoinc" : "dotp"));
                    break;
                case 1:
                    reply = roundTrip(
                        conn, simpleRequest(serve::RequestKind::Ping));
                    break;
                case 2:
                    reply = roundTrip(
                        conn,
                        simpleRequest(serve::RequestKind::Health));
                    break;
                case 3:
                    if (r % 8 == 3) {
                        // Expired deadline: LN3111 or a mem/disk-tier
                        // result; both are valid replies.
                        reply = roundTrip(
                            conn,
                            compileRequest("autoinc", "VexRiscv", 0));
                    } else {
                        // Hostile garbage; the reply must be LN3101
                        // and the connection must survive.
                        if (conn.sendFrame("not json at all") !=
                            net::IoStatus::Ok)
                            break;
                        std::string payload;
                        if (conn.recvFrame(payload, 120000,
                                           serve::maxReplyFrame) ==
                            net::IoStatus::Ok) {
                            std::string error;
                            reply = serve::parseReply(payload, error);
                            if (reply &&
                                reply->code != serve::codeProtocol)
                                failures.fetch_add(1);
                        }
                    }
                    break;
                }
                if (reply)
                    replies.fetch_add(1);
                else
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &t : clients)
        t.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(replies.load(), kClients * kRequests);

    ts.server->requestStop();
    ts.thread.join();
    EXPECT_TRUE(ts.runOk) << ts.runError;
    EXPECT_GE(ts.stats.requests, uint64_t(kClients * kRequests) -
                                     uint64_t(kClients * kRequests / 4));
    EXPECT_EQ(ts.stats.connections, uint64_t(kClients));

    // Post-drain hygiene: no in-progress temp files, no socket file.
    for (const auto &entry : fs::directory_iterator(cache_dir))
        EXPECT_EQ(entry.path().string().find(".tmp"),
                  std::string::npos)
            << entry.path();
    EXPECT_FALSE(fs::exists(ts.options.socketPath));
}

namespace {

/** Map one reply onto the server's outcome vocabulary. */
std::string
outcomeOf(const serve::Reply &reply)
{
    if (reply.type == "result")
        return reply.summary.ok ? "ok" : "compile-error";
    if (reply.code == serve::codeOverloaded)
        return "shed";
    if (reply.code == serve::codeDeadline)
        return "deadline";
    if (reply.code == serve::codeDraining)
        return "drain";
    if (reply.code == serve::codeInjected)
        return "fault";
    return "error:" + reply.code;
}

} // namespace

/**
 * The observability soak (ISSUE acceptance): >= 8 concurrent clients
 * with client-minted request ids and trace contexts drive a live
 * server; one request carries an expired deadline. After the drain,
 * the JSONL event log must name every request id with the
 * outcome the client saw, the trace must nest each client span over
 * its server-side request span (and the request span over its phases),
 * the deadline must have produced a flight-recorder postmortem naming
 * its rid, and the Prometheus exposition must report non-zero shed and
 * deadline counters -- all from files the server wrote itself.
 */
TEST(ServeObsSoak, LogTraceMetricsAndPostmortemEndToEnd)
{
    std::string dir = ::testing::TempDir() + "/ln_obs_soak";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string log_path = dir + "/serve.jsonl";
    std::string trace_path = dir + "/serve_trace.json";
    std::string metrics_path = dir + "/serve.prom";

    obs::Tracer::instance().clear();
    obs::Registry::instance().clear();
    obs::flightrec::resetForTests();

    TestServer ts("obssoak");
    ts.options.admissionMax = 1; // one blocker saturates the server
    ts.options.retryAfterMs = 5;
    ts.options.logPath = log_path;
    ts.options.tracePath = trace_path;
    ts.options.metricsPath = metrics_path;
    ts.options.postmortemDir = dir;
    ts.start();

    struct ClientOutcome
    {
        std::string rid;
        std::string traceId;
        std::string spanId;
        std::string outcome;
    };
    // Slot 0: blocker. Slots 1..7: concurrent shed wave. Slot 8: the
    // expired deadline. Each slot is written only by its own thread.
    std::vector<ClientOutcome> seen(9);

    auto run_client = [&](int slot, serve::Request request) {
        ClientOutcome &out = seen[slot];
        out.rid = "t" + std::to_string(slot) + "-1";
        out.traceId = "trace" + std::to_string(slot);
        out.spanId = out.rid + "-s1";
        request.rid = out.rid;
        request.traceId = out.traceId;
        request.spanId = out.spanId;
        obs::RequestScope scope(out.rid);
        std::optional<serve::Reply> reply;
        {
            obs::TraceSpan span("client.request");
            span.arg("trace", out.traceId);
            span.arg("span", out.spanId);
            net::Connection conn = connectTo(ts);
            reply = roundTrip(conn, request);
        }
        ASSERT_TRUE(reply) << "client " << slot << " got no reply";
        EXPECT_EQ(reply->rid, out.rid)
            << "server must echo the client-minted rid";
        out.outcome = outcomeOf(*reply);
    };

    // Wave 1: a heavy blocker (sqrt at -O1 + validate, ~40 ms => a
    // wide window) occupies the single admission slot...
    serve::Request blocker = compileRequest("sqrt_tightly", "Piccolo");
    blocker.options.optLevel = 1;
    blocker.options.validate = true;
    std::thread blocker_thread(
        [&] { run_client(0, std::move(blocker)); });

    // ...the main thread polls `stats` until it is in flight...
    {
        net::Connection poll = connectTo(ts);
        bool busy = false;
        for (int i = 0; i < 5000 && !busy; ++i) {
            auto stats = roundTrip(
                poll, simpleRequest(serve::RequestKind::Stats));
            ASSERT_TRUE(stats);
            busy = stats->raw.getNumber("inFlight", 0.0) >= 1.0;
            if (!busy)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        }
        ASSERT_TRUE(busy) << "blocker never entered the server";
    }

    // ...and 7 concurrent clients pile on: admission (max 1) sheds.
    std::vector<std::thread> wave;
    for (int c = 1; c <= 7; ++c)
        wave.emplace_back(
            [&, c] { run_client(c, compileRequest("autoinc")); });
    for (auto &t : wave)
        t.join();
    blocker_thread.join();

    // Wave 2 (sequential, slot free again): an already-expired
    // deadline on a core no other request touched -- deterministic
    // LN3111 and a deadline postmortem naming this rid.
    run_client(8, compileRequest("autoinc", "ORCA", 0));

    EXPECT_EQ(seen[0].outcome, "ok");
    EXPECT_EQ(seen[8].outcome, "deadline");
    int shed = 0;
    for (int c = 1; c <= 7; ++c) {
        EXPECT_TRUE(seen[c].outcome == "shed" ||
                    seen[c].outcome == "ok")
            << seen[c].outcome;
        if (seen[c].outcome == "shed")
            ++shed;
    }
    // The blocker held the only slot while all 7 were sent.
    EXPECT_GE(shed, 1);

    // Drain: the server writes its trace and metrics files on the way
    // out and closes the event log.
    ts.server->requestStop();
    ts.thread.join();
    EXPECT_TRUE(ts.runOk) << ts.runError;
    obs::flightrec::setPostmortemDir("");

    // --- Event log: every client rid appears with the outcome the
    // client saw (grep rid=... reconstructs the request).
    std::map<std::string, std::string> logged; // rid -> last outcome
    {
        std::ifstream in(log_path);
        ASSERT_TRUE(in.good()) << log_path;
        std::string line;
        while (std::getline(in, line)) {
            std::string error;
            auto doc = json::parse(line, &error);
            ASSERT_TRUE(doc) << error << "\n" << line;
            if (doc->getString("ev") == "serve.reply" &&
                doc->getString("kind") == "compile")
                logged[doc->getString("rid")] =
                    doc->getString("outcome");
        }
    }
    for (const auto &client : seen) {
        auto it = logged.find(client.rid);
        ASSERT_NE(it, logged.end())
            << "rid " << client.rid << " missing from the event log";
        EXPECT_EQ(it->second, client.outcome) << client.rid;
    }

    // --- Trace: the server's request span carries the propagated
    // trace context and sits inside the client's span; the fresh
    // compile's phase spans carry the rid and sit inside the request
    // span.
    auto events = obs::Tracer::instance().events();
    auto arg_of = [](const obs::TraceEvent &e, const char *key) {
        for (const auto &[k, v] : e.args)
            if (k == key)
                return v;
        return std::string();
    };
    for (const auto &client : seen) {
        const obs::TraceEvent *client_span = nullptr;
        const obs::TraceEvent *request_span = nullptr;
        for (const auto &e : events) {
            if (e.name == "client.request" &&
                arg_of(e, "trace") == client.traceId)
                client_span = &e;
            if (e.name == "request" &&
                arg_of(e, "trace") == client.traceId) {
                EXPECT_EQ(arg_of(e, "parent"), client.spanId);
                request_span = &e;
            }
        }
        ASSERT_NE(client_span, nullptr) << client.rid;
        ASSERT_NE(request_span, nullptr) << client.rid;
        // Same process => same trace epoch: the client span must
        // enclose the server-side handling it waited on.
        EXPECT_LE(client_span->startUs, request_span->startUs);
        EXPECT_GE(client_span->startUs + client_span->durUs,
                  request_span->startUs + request_span->durUs);
        EXPECT_EQ(arg_of(*request_span, "outcome"), client.outcome);
    }
    // Phase spans of the blocker's fresh compile carry its rid.
    size_t blocker_phases = 0;
    const obs::TraceEvent *blocker_request = nullptr;
    for (const auto &e : events)
        if (e.name == "request" && arg_of(e, "trace") == seen[0].traceId)
            blocker_request = &e;
    ASSERT_NE(blocker_request, nullptr);
    for (const auto &e : events) {
        if (arg_of(e, "rid") != seen[0].rid || e.name == "request" ||
            e.name == "client.request")
            continue;
        ++blocker_phases;
        EXPECT_GE(e.startUs, blocker_request->startUs) << e.name;
        EXPECT_LE(e.startUs + e.durUs,
                  blocker_request->startUs + blocker_request->durUs)
            << e.name;
    }
    EXPECT_GE(blocker_phases, 5u) << "expected per-phase spans";
    // The queue-wait span around its compile-slot wait is among them.
    bool queue_wait_seen = false;
    for (const auto &e : events)
        if (e.name == "queue.wait" && arg_of(e, "rid") == seen[0].rid)
            queue_wait_seen = true;
    EXPECT_TRUE(queue_wait_seen);

    // The server also wrote the trace as a file at drain.
    {
        std::ifstream in(trace_path);
        ASSERT_TRUE(in.good()) << trace_path;
        std::stringstream ss;
        ss << in.rdbuf();
        std::string error;
        auto doc = json::parse(ss.str(), &error);
        ASSERT_TRUE(doc) << error;
        EXPECT_NE(doc->find("traceEvents"), nullptr);
    }

    // --- Flight recorder: the deadline produced a postmortem naming
    // the deadline request's rid.
    bool postmortem_found = false;
    for (const auto &entry : fs::directory_iterator(dir)) {
        std::string name = entry.path().filename().string();
        if (name.find("longnail-postmortem-deadline-") != 0)
            continue;
        std::ifstream in(entry.path());
        std::stringstream ss;
        ss << in.rdbuf();
        if (ss.str().find(seen[8].rid) != std::string::npos)
            postmortem_found = true;
    }
    EXPECT_TRUE(postmortem_found)
        << "no deadline postmortem names rid " << seen[8].rid;

    // --- Prometheus exposition: non-zero shed and deadline counters.
    {
        std::ifstream in(metrics_path);
        ASSERT_TRUE(in.good()) << metrics_path;
        std::stringstream ss;
        ss << in.rdbuf();
        std::string text = ss.str();
        EXPECT_NE(
            text.find("# TYPE longnail_serve_outcome_shed_total "
                      "counter"),
            std::string::npos)
            << text;
        EXPECT_NE(text.find("longnail_serve_outcome_deadline_total 1"),
                  std::string::npos);
        EXPECT_NE(text.find("# TYPE longnail_serve_request_ms summary"),
                  std::string::npos);
        EXPECT_NE(
            text.find("longnail_serve_request_ms{quantile=\"0.5\"}"),
            std::string::npos);
        // Latency split by the shed outcome is present and non-empty.
        EXPECT_NE(text.find("longnail_serve_request_ms_shed_count"),
                  std::string::npos);
    }
}
