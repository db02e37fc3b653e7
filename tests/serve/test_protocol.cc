/**
 * @file
 * Wire-protocol tests (docs/compile-server.md): length-prefixed frame
 * transport over socketpairs -- truncated frames, oversize length
 * prefixes, clean close vs mid-frame EOF, timeouts and wake-fd aborts
 * -- plus request/reply JSON encode/decode round trips and hostile
 * payload rejection. Everything here runs without a live server; the
 * daemon-level behavior is in test_serve.cc.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "serve/protocol.hh"
#include "support/socket.hh"

using namespace longnail;

namespace {

/** A connected socketpair wrapped in frame Connections. `raw` keeps a
 * bare fd on one side for hostile byte-level writes. */
struct Pair
{
    net::Connection a, b;

    Pair()
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = net::Connection(fds[0]);
        b = net::Connection(fds[1]);
    }
};

void
writeRaw(int fd, const void *data, size_t len)
{
    ASSERT_EQ(::write(fd, data, len), ssize_t(len));
}

} // namespace

TEST(Frames, RoundTripSmallAndLarge)
{
    Pair p;
    std::string small = "{\"type\":\"ping\"}";
    std::string large(1 << 20, 'x');
    // The 1 MiB frame exceeds the kernel socket buffer, so the sender
    // must run concurrently with the receiving side.
    std::thread sender([&] {
        EXPECT_EQ(p.a.sendFrame(small), net::IoStatus::Ok);
        EXPECT_EQ(p.a.sendFrame(large), net::IoStatus::Ok);
    });
    std::string out;
    ASSERT_EQ(p.b.recvFrame(out, 5000, 2u << 20), net::IoStatus::Ok);
    EXPECT_EQ(out, small);
    ASSERT_EQ(p.b.recvFrame(out, 5000, 2u << 20), net::IoStatus::Ok);
    EXPECT_EQ(out, large);
    sender.join();
}

TEST(Frames, CleanCloseAtBoundaryIsClosed)
{
    Pair p;
    p.a.close();
    std::string out;
    EXPECT_EQ(p.b.recvFrame(out, 1000, 4096), net::IoStatus::Closed);
}

TEST(Frames, EofInsidePrefixIsTruncated)
{
    Pair p;
    char half[2] = {0x10, 0x00}; // 2 of the 4 prefix bytes
    writeRaw(p.a.fd(), half, sizeof(half));
    p.a.close();
    std::string out;
    EXPECT_EQ(p.b.recvFrame(out, 1000, 4096), net::IoStatus::Truncated);
}

TEST(Frames, EofInsidePayloadIsTruncated)
{
    Pair p;
    uint32_t len = 100;
    writeRaw(p.a.fd(), &len, 4);
    writeRaw(p.a.fd(), "only ten b", 10);
    p.a.close();
    std::string out;
    EXPECT_EQ(p.b.recvFrame(out, 1000, 4096), net::IoStatus::Truncated);
}

TEST(Frames, OversizePrefixRejectedBeforeAllocation)
{
    Pair p;
    uint32_t hostile = 0xFFFFFFFFu;
    writeRaw(p.a.fd(), &hostile, 4);
    std::string out;
    // A 4 GiB claim against a 4 KiB limit must fail fast -- no
    // allocation, no attempt to read the (nonexistent) payload.
    EXPECT_EQ(p.b.recvFrame(out, 1000, 4096), net::IoStatus::Oversize);
}

TEST(Frames, SilentPeerTimesOut)
{
    Pair p;
    std::string out;
    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(p.b.recvFrame(out, 50, 4096), net::IoStatus::Timeout);
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    EXPECT_GE(ms, 45);
}

TEST(Frames, WakeFdAbortsBlockingWait)
{
    Pair p;
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);
    std::thread waker([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        char byte = 'w';
        (void)!::write(pipe_fds[1], &byte, 1);
    });
    std::string out;
    // Indefinite timeout, but the wake fd aborts the wait.
    EXPECT_EQ(p.b.recvFrame(out, -1, 4096, pipe_fds[0]),
              net::IoStatus::Timeout);
    waker.join();
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
}

TEST(Protocol, GarbageJsonIsRejectedWithError)
{
    std::string error;
    EXPECT_FALSE(serve::parseRequest("{{{ not json", error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(serve::parseRequest("[1,2,3]", error)); // not an object
    EXPECT_FALSE(serve::parseRequest("{\"type\":\"evil\"}", error));
    EXPECT_FALSE(serve::parseRequest("{}", error)); // no type
    // compile without a source is malformed
    EXPECT_FALSE(serve::parseRequest("{\"type\":\"compile\"}", error));
    // bad deadline
    EXPECT_FALSE(serve::parseRequest(
        "{\"type\":\"compile\",\"source\":\"x\",\"deadlineMs\":-5}",
        error));
}

TEST(Protocol, RequestRoundTripsThroughWireForm)
{
    serve::Request req;
    req.kind = serve::RequestKind::Compile;
    req.id = "req-42";
    req.unitName = "dotp";
    req.source = "InstructionSet X { }";
    req.target = "X";
    req.deadlineMs = 1500;
    req.options.coreName = "ORCA";
    req.options.timingMode = sched::TimingMode::Library;
    req.options.cycleTimeNs = 2.5;
    req.options.lintOnly = true;
    req.options.warningsAsErrors = true;
    req.options.warningsAsErrorCodes = {"LN4001"};
    req.options.suppressedWarningCodes = {"LN2001", "LN4102"};

    std::string error;
    auto back = serve::parseRequest(serve::emitRequest(req), error);
    ASSERT_TRUE(back) << error;
    EXPECT_EQ(back->kind, serve::RequestKind::Compile);
    EXPECT_EQ(back->id, "req-42");
    EXPECT_EQ(back->unitName, "dotp");
    EXPECT_EQ(back->source, req.source);
    EXPECT_EQ(back->target, "X");
    EXPECT_EQ(back->deadlineMs, 1500);
    EXPECT_EQ(back->options.coreName, "ORCA");
    EXPECT_EQ(back->options.timingMode, sched::TimingMode::Library);
    EXPECT_DOUBLE_EQ(back->options.cycleTimeNs, 2.5);
    EXPECT_TRUE(back->options.lintOnly);
    EXPECT_TRUE(back->options.warningsAsErrors);
    EXPECT_EQ(back->options.warningsAsErrorCodes,
              req.options.warningsAsErrorCodes);
    EXPECT_EQ(back->options.suppressedWarningCodes,
              req.options.suppressedWarningCodes);
}

TEST(Protocol, OptionsRoundTripPreservesCacheKey)
{
    // The wire encoding must preserve every field that feeds the
    // content-addressed cache key, or server-side lookups would hit
    // entries the client's options should have missed.
    driver::CompileOptions opts;
    opts.coreName = "PicoRV32";
    opts.cycleTimeNs = 4.0;
    opts.baseSetName = "RV32I";
    opts.maxErrors = 7;
    opts.schedBudget.lpWorkLimit = 12345;
    opts.validate = true;

    driver::CompileOptions back;
    std::string error;
    ASSERT_TRUE(driver::fromJson(driver::toJson(opts), back, error))
        << error;
    EXPECT_EQ(driver::cacheKey("src", "tgt", opts),
              driver::cacheKey("src", "tgt", back));
}

TEST(Protocol, ResultReplyRoundTripsSummary)
{
    driver::CompileSummary summary;
    summary.isaxName = "dotp";
    summary.coreName = "VexRiscv";
    summary.ok = true;
    summary.chosenScheduler = "optimal";
    summary.lpWorkUnits = 99;
    summary.diags.push_back(
        {Severity::Warning, "LN2001", "warning: something"});
    driver::CompileSummary::UnitSummary unit;
    unit.name = "dotp";
    unit.makespan = 3;
    unit.objective = 12.0;
    unit.quality = "optimal";
    unit.firstStage = 1;
    unit.lastStage = 3;
    unit.numRegisters = 4;
    unit.systemVerilog = "module dotp(); endmodule\n";
    summary.units.push_back(unit);
    summary.configYaml = "isax: dotp\n";

    std::string payload =
        serve::emitResultReply(summary, "id-7", "fresh");
    std::string error;
    auto reply = serve::parseReply(payload, error);
    ASSERT_TRUE(reply) << error;
    EXPECT_EQ(reply->type, "result");
    EXPECT_EQ(reply->id, "id-7");
    EXPECT_EQ(reply->cacheTier, "fresh");
    const driver::CompileSummary &s = reply->summary;
    EXPECT_TRUE(s.ok);
    EXPECT_EQ(s.isaxName, "dotp");
    EXPECT_EQ(s.coreName, "VexRiscv");
    EXPECT_EQ(s.chosenScheduler, "optimal");
    EXPECT_EQ(s.lpWorkUnits, 99u);
    ASSERT_EQ(s.diags.size(), 1u);
    EXPECT_EQ(s.diags[0].severity, Severity::Warning);
    EXPECT_EQ(s.diags[0].code, "LN2001");
    EXPECT_EQ(s.diags[0].rendered, "warning: something");
    ASSERT_EQ(s.units.size(), 1u);
    EXPECT_EQ(s.units[0].systemVerilog, unit.systemVerilog);
    EXPECT_EQ(s.units[0].numRegisters, 4u);
    EXPECT_EQ(s.configYaml, "isax: dotp\n");
}

TEST(Protocol, ResultReplyIsStrictAboutTheSummary)
{
    // All-default summary: every member empty or zero.
    driver::CompileSummary summary;
    std::string error;
    auto doc = json::parse(serve::emitResultReply(summary, "", "mem"),
                           &error);
    ASSERT_TRUE(doc) << error;
    // The encoder writes every member, empty and zero ones included.
    for (const char *key :
         {"isax", "core", "ok", "diags", "errors", "scheduler",
          "lpWorkUnits", "fallbackEvents", "units", "configYaml"})
        EXPECT_NE(doc->find(key), nullptr) << key;
    ASSERT_TRUE(serve::parseReply(doc->emit(), error)) << error;

    // A missing or mistyped member is a bad reply, not a default.
    json::Value dropped = json::Value::object();
    for (const auto &[key, value] : doc->members())
        if (key != "units")
            dropped.set(key, value);
    EXPECT_FALSE(serve::parseReply(dropped.emit(), error));
    EXPECT_NE(error.find("'units'"), std::string::npos) << error;

    json::Value mistyped = *doc;
    mistyped.set("ok", "yes");
    EXPECT_FALSE(serve::parseReply(mistyped.emit(), error));
    EXPECT_NE(error.find("'ok'"), std::string::npos) << error;
}

TEST(Protocol, ErrorReplyCarriesCodeAndRetryHint)
{
    std::string payload = serve::emitErrorReply(
        serve::codeOverloaded, "server overloaded", "id-1", 250);
    std::string error;
    auto reply = serve::parseReply(payload, error);
    ASSERT_TRUE(reply) << error;
    EXPECT_EQ(reply->type, "error");
    EXPECT_EQ(reply->code, "LN3110");
    EXPECT_EQ(reply->message, "server overloaded");
    EXPECT_EQ(reply->retryAfterMs, 250);

    // Without a hint the field stays absent / -1.
    auto plain = serve::parseReply(
        serve::emitErrorReply(serve::codeDeadline, "late", ""), error);
    ASSERT_TRUE(plain);
    EXPECT_EQ(plain->retryAfterMs, -1);
}
