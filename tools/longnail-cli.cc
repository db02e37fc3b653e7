/**
 * @file
 * The Longnail command-line tool: CoreDSL in, SystemVerilog + SCAIE-V
 * configuration out (the end-to-end flow of Fig. 9).
 *
 *   longnail [options] <input.core_desc>...
 *     --core NAME        target core: ORCA, Piccolo, PicoRV32,
 *                        VexRiscv (default VexRiscv)
 *     --datasheet FILE   virtual datasheet (YAML) for a custom core
 *     --target NAME      InstructionSet/Core to compile (default:
 *                        the last definition in the file)
 *     --timing MODE      uniform (paper default) | library
 *     --cycle-time NS    override the target clock period
 *     --max-errors N     stop reporting after N errors (default:
 *                        unlimited)
 *     -o DIR             output directory (default: .)
 *     --stdout           print artifacts instead of writing files
 *     --report           print the schedule and ASIC summary
 *     -O0 / -O1          optimization level (default -O0; -O1 runs
 *                        the verified pass pipeline, see
 *                        docs/pass-pipeline.md)
 *     --dump-analysis=FILE
 *                        write a YAML dump of the per-value range and
 *                        demanded-bits analysis states
 *     --lint             stop after static analysis; print findings
 *     --ln-codes         print the diagnostic-code registry as a
 *                        markdown table and exit
 *     --validate         translation validation: re-check every
 *                        schedule and prove each netlist equivalent
 *                        to its LIL graph (LN44xx/45xx/46xx; see
 *                        docs/translation-validation.md)
 *     --verify-ir        re-verify the IR after every transform
 *     --Werror[=CODE]    promote all warnings (or one LN code) to
 *                        errors
 *     --no-warn=CODE     suppress warnings with the given LN code
 *     --trace-json=FILE  write a Chrome trace-event JSON of the
 *                        compile (open in Perfetto / chrome://tracing;
 *                        see docs/observability.md)
 *     --stats=FILE       dump the metrics registry as YAML; FILE '-'
 *                        prints a human-readable table to stdout
 *     --log=FILE         structured JSONL event log; FILE '-' writes
 *                        to stderr. Every record carries the request
 *                        id (rid), so `grep rid=...` reconstructs one
 *                        request end to end
 *     --metrics-out=FILE write the metrics registry as Prometheus
 *                        text exposition
 *     --postmortem-dir=DIR
 *                        enable flight-recorder postmortem dumps
 *                        (crash, deadline, failpoint trip, TV
 *                        refutation) into DIR
 *     --quiet            suppress advisory warn/inform output
 *
 * Batch compilation (docs/batch-compilation.md) -- active when more
 * than one input is given or any of the following flags appears:
 *     --jobs=N, -jN      compile units on N worker threads (0 = one
 *                        per hardware thread; default 1)
 *     --cores A,B,...    compile every input for several cores; units
 *                        are named "<input-stem>@<core>"
 *     --cache-dir DIR    content-addressed artifact cache: replay
 *                        units whose full input closure is unchanged
 *     --cache-limit N    LRU-evict cache entries beyond N (0 = keep
 *                        all)
 * Batch output ordering is deterministic: artifacts, diagnostics and
 * the exit code are byte-identical for any --jobs value. Artifacts
 * land in <out-dir>/<unit-key>/; per-unit diagnostics are prefixed
 * "[unit-key] " on stderr.
 *
 * Compile server (docs/compile-server.md):
 *     --serve            run as a persistent compile daemon
 *     --socket PATH      Unix-domain socket to serve on / connect to
 *     --connect PATH     client mode: send one request to a daemon and
 *                        render the reply exactly like a local compile
 *     --request TYPE     client request type: compile (default),
 *                        health, stats, metrics, dump, ping, shutdown
 *     --top PATH         live service introspection: render inflight,
 *                        queue depth, shed rate, cache tiers and
 *                        latency quantiles from a daemon's stats
 *                        reply; --interval-ms N refreshes every N ms
 *                        until interrupted
 *     --deadline-ms N    per-request compile deadline (client), or the
 *                        default deadline applied to requests without
 *                        one (server)
 *     --admission-max N  server: shed compile requests beyond N in
 *                        flight (LN3110)
 *     --idle-timeout-ms N  server: close connections silent for N ms
 *     --drain-grace-ms N server: drain wait before cancelling in-
 *                        flight requests
 *     --mem-cache N      server: in-memory hot artifact cache bound
 * The server drains gracefully on SIGINT/SIGTERM (finish or cancel
 * in-flight work, answer blocked clients, sweep cache temp files) and
 * exits 0.
 *
 * Exit codes (deterministic, see docs/failure-model.md):
 *   0  success
 *   1  usage error
 *   2  frontend error (parse/sema/lowering, LN1xxx)
 *   3  scheduling error (LN2xxx)
 *   4  I/O error (unreadable input, bad datasheet, unwritable output)
 *   5  lint error (static analysis and translation validation, LN4xxx)
 *   6  interrupted (SIGINT/SIGTERM during a one-shot or batch compile;
 *      in-progress cache temp files are swept before exiting)
 *   7  server/transport error (client mode: cannot connect, connection
 *      lost, or the server replied with a serve-layer LN31xx/LN39xx
 *      error)
 *
 * The tool never terminates via an uncaught exception; unexpected
 * failures are reported and mapped onto the codes above.
 */

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.hh"
#include "asic/flow.hh"
#include "driver/batch.hh"
#include "driver/longnail.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "serve/server.hh"
#include "support/failpoint.hh"
#include "support/signals.hh"
#include "support/socket.hh"

using namespace longnail;

namespace {

/** Deterministic exit codes. */
enum ExitCode
{
    exitOk = 0,
    exitUsage = 1,
    exitFrontend = 2,
    exitSchedule = 3,
    exitIo = 4,
    exitLint = 5,
    exitInterrupted = 6,
    exitServer = 7,
};

/** Thrown to unwind to main() with a specific exit code. */
struct CliError
{
    int code;
    std::string message;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw CliError{exitIo, "cannot open '" + path + "'"};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string &path, const std::string &contents)
{
    std::ofstream out(path);
    if (!out)
        throw CliError{exitIo, "cannot write '" + path + "'"};
    out << contents;
    inform("wrote ", path);
}

void
printUsage()
{
    std::fprintf(stderr,
                 "usage: longnail [--core NAME] [--datasheet FILE] "
                 "[--target NAME]\n"
                 "                [--timing uniform|library] "
                 "[--cycle-time NS]\n"
                 "                [--max-errors N] [-o DIR] [--stdout] "
                 "[--report]\n"
                 "                [-O0|-O1] [--dump-analysis=FILE]\n"
                 "                [--lint] [--validate] [--verify-ir] "
                 "[--Werror[=CODE]] [--no-warn=CODE]\n"
                 "                [--trace-json=FILE] [--stats=FILE|-] "
                 "[--quiet]\n"
                 "                [--log=FILE|-] [--metrics-out=FILE] "
                 "[--postmortem-dir=DIR]\n"
                 "                [--jobs=N|-jN] [--cores A,B,...] "
                 "[--cache-dir DIR]\n"
                 "                [--cache-limit N]\n"
                 "                [--serve --socket PATH | --connect "
                 "PATH [--request TYPE]\n"
                 "                 | --top PATH [--interval-ms N]]\n"
                 "                [--deadline-ms N] [--admission-max N] "
                 "[--idle-timeout-ms N]\n"
                 "                [--drain-grace-ms N] [--mem-cache N]\n"
                 "                <input.core_desc>...\n");
}

[[noreturn]] void
usage()
{
    printUsage();
    throw CliError{exitUsage, ""};
}

/**
 * Exit code of a failed compile: LN4xxx errors -> lint, else LN2xxx ->
 * schedule, else frontend. A batch takes the code of its first failing
 * unit in sorted order, so it is the same for any --jobs value.
 */
int
failureExitCode(const driver::CompileSummary &summary)
{
    bool schedule = false;
    for (const auto &diag : summary.diags) {
        if (diag.severity != Severity::Error)
            continue;
        if (diag.code.rfind("LN4", 0) == 0)
            return exitLint;
        if (diag.code.rfind("LN2", 0) == 0)
            schedule = true;
    }
    return schedule ? exitSchedule : exitFrontend;
}

/**
 * Render one compile, local or served, from its summary: the error
 * block or the warnings on stderr, then the --lint line or the
 * SystemVerilog + SCAIE-V YAML (stdout or @p out_dir).
 * @return the exit code.
 */
int
renderCompile(const driver::CompileSummary &summary, bool lint_only,
              const std::string &out_dir, bool to_stdout)
{
    if (!summary.ok) {
        std::fprintf(stderr, "%s", summary.errorsText.c_str());
        return failureExitCode(summary);
    }
    // Fallback-schedule warnings (LN2001), lint findings (LN4xxx) and
    // other advisories.
    size_t warnings = 0;
    for (const auto &diag : summary.diags)
        if (diag.severity == Severity::Warning) {
            ++warnings;
            std::fprintf(stderr, "%s\n", diag.rendered.c_str());
        }
    if (lint_only) {
        std::printf("%s: lint ok (%zu warning%s)\n",
                    summary.isaxName.c_str(), warnings,
                    warnings == 1 ? "" : "s");
        return exitOk;
    }
    if (to_stdout) {
        std::string all;
        for (const auto &unit : summary.units) {
            all += unit.systemVerilog;
            all += "\n";
        }
        std::printf("%s\n%s", all.c_str(), summary.configYaml.c_str());
    } else {
        for (const auto &unit : summary.units)
            writeFile(out_dir + "/" + unit.name + ".sv",
                      unit.systemVerilog);
        writeFile(out_dir + "/" + summary.isaxName + ".scaiev.yaml",
                  summary.configYaml);
    }
    return exitOk;
}

/** The `--report` line naming a compile's scheduler outcome. */
void
printSchedulerLine(const driver::CompileSummary &summary)
{
    std::printf("  scheduler: %s, %llu LP work units consumed, "
                "%u fallback event%s\n",
                summary.chosenScheduler.c_str(),
                static_cast<unsigned long long>(summary.lpWorkUnits),
                summary.fallbackEvents,
                summary.fallbackEvents == 1 ? "" : "s");
}

/** The `--report` line of one unit: kind, stages, registers, schedule. */
void
printUnitLine(const driver::CompileSummary::UnitSummary &unit)
{
    std::printf("  %-16s %s, stages %d..%d, %u pipeline registers, "
                "objective %.0f, %s schedule\n",
                unit.name.c_str(), unit.isAlways ? "always" : "instruction",
                unit.firstStage, unit.lastStage, unit.numRegisters,
                unit.objective, unit.quality.c_str());
}

/**
 * Batch mode (docs/batch-compilation.md): every input crossed with
 * every core, compiled via driver::compileBatch(). All user-visible
 * output is rendered from the sorted result vector after the join, so
 * stdout, stderr, written artifacts and the exit code are
 * byte-identical for any --jobs value.
 */
int
runBatch(const std::vector<std::string> &inputs,
         const std::string &target,
         const driver::CompileOptions &base,
         const std::string &cores_arg, const std::string &cache_dir,
         size_t cache_limit, unsigned jobs,
         const std::string &out_dir, bool to_stdout, bool report)
{
    std::vector<std::string> cores;
    if (cores_arg.empty()) {
        cores.push_back(base.coreName);
    } else {
        size_t start = 0;
        for (;;) {
            size_t comma = cores_arg.find(',', start);
            std::string core =
                cores_arg.substr(start, comma == std::string::npos
                                            ? std::string::npos
                                            : comma - start);
            if (core.empty())
                usage();
            cores.push_back(core);
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
    }

    // Read every input up front: an unreadable file aborts the whole
    // batch with exit 4 before any compile starts, deterministically.
    std::vector<driver::BatchRequest> requests;
    for (const auto &path : inputs) {
        std::string source = readFile(path);
        std::string stem = std::filesystem::path(path).stem().string();
        for (const auto &core : cores) {
            driver::BatchRequest req;
            req.unitName = stem + "@" + core;
            req.source = source;
            req.target = target;
            req.options = base;
            req.options.coreName = core;
            requests.push_back(std::move(req));
        }
    }

    driver::BatchOptions batch_options;
    batch_options.jobs = jobs;
    batch_options.cacheDir = cache_dir;
    batch_options.cacheMaxEntries = cache_limit;
    // Ctrl-C settles not-yet-started units with LN3011 instead of
    // compiling them (the per-unit options carry the same token for
    // the in-flight ones).
    batch_options.cancel = base.cancel;
    driver::BatchResult result =
        driver::compileBatch(std::move(requests), batch_options);

    // Sorted, post-join emission. Failed units print every diagnostic
    // (the batch equivalent of the single-compile error block);
    // successful ones print their warnings, as the single path does.
    for (const auto &unit : result.units) {
        const driver::CompileSummary &summary = unit.summary;
        for (const auto &diag : summary.diags)
            if (!unit.ok || diag.severity == Severity::Warning)
                std::fprintf(stderr, "[%s] %s\n", unit.unitName.c_str(),
                             diag.rendered.c_str());

        if (!unit.ok || base.lintOnly)
            continue;
        if (to_stdout) {
            std::printf("// ===== %s =====\n", unit.unitName.c_str());
            for (const auto &u : summary.units)
                std::printf("%s\n", u.systemVerilog.c_str());
            std::printf("%s", summary.configYaml.c_str());
        } else {
            std::string dir = out_dir + "/" + unit.unitName;
            std::error_code ec;
            std::filesystem::create_directories(dir, ec);
            if (ec)
                throw CliError{exitIo, "cannot create '" + dir + "'"};
            for (const auto &u : summary.units)
                writeFile(dir + "/" + u.name + ".sv", u.systemVerilog);
            writeFile(dir + "/" + summary.isaxName + ".scaiev.yaml",
                      summary.configYaml);
        }
    }

    for (const auto &unit : result.units)
        std::printf("%s: %s\n", unit.unitName.c_str(),
                    unit.ok ? "ok" : "failed");
    std::printf("batch: %zu/%zu ok\n", result.okCount(),
                result.units.size());

    if (report) {
        // Deterministic fields only: no wall times, no ASIC numbers
        // (they vary run to run and would break -j1 vs -jN diffing).
        for (const auto &unit : result.units) {
            if (!unit.ok)
                continue;
            std::printf("\n%s\n", unit.unitName.c_str());
            printSchedulerLine(unit.summary);
            for (const auto &u : unit.summary.units)
                printUnitLine(u);
        }
    }

    if (!cache_dir.empty())
        inform("cache: ", result.stats.cacheHits, " hit(s), ",
               result.stats.cacheMisses, " miss(es), ",
               result.stats.cacheStores, " store(s), ",
               result.stats.cacheCorrupt, " corrupt");

    for (const auto &unit : result.units)
        if (!unit.ok)
            return failureExitCode(unit.summary);
    return exitOk;
}

/**
 * `--serve`: run the persistent compile daemon until SIGINT/SIGTERM
 * (or a `shutdown` request), then drain gracefully. A clean drain
 * exits 0 -- including when a signal initiated it; that is the
 * server's orderly-shutdown path, not an interruption.
 */
int
runServe(const std::string &socket_path, unsigned jobs,
         bool jobs_given, long admission_max, long idle_timeout_ms,
         long deadline_ms, long drain_grace_ms, long mem_cache,
         const std::string &cache_dir, size_t cache_limit,
         const std::string &log_path, const std::string &trace_path,
         const std::string &metrics_path,
         const std::string &postmortem_dir)
{
    if (socket_path.empty())
        throw CliError{exitUsage, "--serve requires --socket PATH"};

    signals::install();
    serve::ServeOptions so;
    so.socketPath = socket_path;
    // Unlike one-shot batch (default -j1), a daemon defaults to one
    // compile slot per hardware thread.
    so.jobs = jobs_given ? jobs : 0;
    // 0 is a valid (shed-everything) setting used by shed tests.
    if (admission_max >= 0)
        so.admissionMax = unsigned(admission_max);
    if (idle_timeout_ms != 0)
        so.idleTimeoutMs = idle_timeout_ms;
    if (deadline_ms >= 0)
        so.defaultDeadlineMs = deadline_ms;
    if (drain_grace_ms >= 0)
        so.drainGraceMs = drain_grace_ms;
    if (mem_cache >= 0)
        so.memCacheEntries = size_t(mem_cache);
    so.cacheDir = cache_dir;
    so.cacheMaxEntries = cache_limit;
    // The server owns the observability sinks in serve mode: the log
    // opens when serving starts and the trace/exposition files are
    // written after the drain completes.
    so.logPath = log_path;
    so.tracePath = trace_path;
    so.metricsPath = metrics_path;
    so.postmortemDir = postmortem_dir;
    so.stopToken = &signals::token();

    serve::Server server(std::move(so));
    serve::ServeStats stats;
    std::string error;
    inform("serving on ", socket_path);
    if (!server.run(stats, error))
        throw CliError{exitServer, error};
    inform("serve: ", stats.connections, " connection(s), ",
           stats.requests, " request(s), ", stats.compiles,
           " compile(s), ", stats.memHits, " mem hit(s), ",
           stats.diskHits, " disk hit(s), ", stats.shed, " shed, ",
           stats.deadlineMisses, " deadline miss(es), ",
           stats.tmpFilesRemoved, " temp file(s) swept");
    return exitOk;
}

/**
 * `--connect`: send one request to a running daemon and render the
 * reply. A compile result is rendered exactly like a local one-shot
 * compile -- same artifact files, same stdout/stderr bytes, same exit
 * code -- which the serve determinism test diffs. Serve-layer errors
 * (shed, deadline, draining, injected) exit 7.
 */
int
runClient(const std::string &connect_path,
          const std::string &request_type,
          const std::vector<std::string> &inputs,
          const std::string &target,
          const driver::CompileOptions &options, long deadline_ms,
          const std::string &out_dir, bool to_stdout,
          const std::string &trace_path)
{
    serve::Request request;
    if (request_type == "compile") {
        request.kind = serve::RequestKind::Compile;
        if (inputs.size() != 1)
            throw CliError{exitUsage,
                           "client compile mode takes exactly one input"};
        request.source = readFile(inputs.front());
        request.unitName =
            std::filesystem::path(inputs.front()).stem().string();
        request.target = target;
        request.options = options;
        request.deadlineMs = deadline_ms;
    } else if (request_type == "health") {
        request.kind = serve::RequestKind::Health;
    } else if (request_type == "stats") {
        request.kind = serve::RequestKind::Stats;
    } else if (request_type == "metrics") {
        request.kind = serve::RequestKind::Metrics;
    } else if (request_type == "dump") {
        request.kind = serve::RequestKind::Dump;
    } else if (request_type == "ping") {
        request.kind = serve::RequestKind::Ping;
    } else if (request_type == "shutdown") {
        request.kind = serve::RequestKind::Shutdown;
    } else {
        throw CliError{exitUsage,
                       "unknown --request '" + request_type + "'"};
    }

    // Client-minted request/trace identity: "c<pid>-1" travels in the
    // request, tags the server's log records and spans for this
    // request, and comes back in the reply -- so one grep over the
    // server log finds what the server did with this exact call.
    std::string pid = std::to_string(long(getpid()));
    request.rid = "c" + pid + "-1";
    request.traceId = "t" + pid;
    request.spanId = request.rid + "-s1";
    obs::RequestScope rid_scope(request.rid);
    obs::logEvent(obs::LogLevel::Info, "client.request",
                  {{"kind", request_type}, {"socket", connect_path}});

    std::string error;
    std::string payload;
    {
        // The client-side span covers connect, send and the wait for
        // the reply; its ids are the parent the server span points at.
        obs::TraceSpan span("client.request");
        span.arg("kind", request_type);
        span.arg("trace", request.traceId);
        span.arg("span", request.spanId);
        net::Connection conn = net::connectUnix(connect_path, error);
        if (!conn.valid())
            throw CliError{exitServer, "cannot connect to '" +
                                           connect_path + "': " + error};
        if (conn.sendFrame(serve::emitRequest(request)) !=
            net::IoStatus::Ok)
            throw CliError{exitServer, "cannot send request to '" +
                                           connect_path + "'"};
        net::IoStatus st =
            conn.recvFrame(payload, -1, serve::maxReplyFrame);
        if (st != net::IoStatus::Ok)
            throw CliError{exitServer,
                           std::string("server connection failed (") +
                               net::ioStatusName(st) + ")"};
    }
    if (!trace_path.empty())
        writeFile(trace_path, obs::Tracer::instance().toChromeJson());
    auto reply = serve::parseReply(payload, error);
    if (!reply)
        throw CliError{exitServer, "bad server reply: " + error};
    obs::logEvent(obs::LogLevel::Info, "client.reply",
                  {{"type", reply->type}, {"code", reply->code}});

    if (reply->type == "error") {
        std::string hint =
            reply->retryAfterMs >= 0
                ? " (retry after " +
                      std::to_string(reply->retryAfterMs) + " ms)"
                : "";
        throw CliError{exitServer, "server error " + reply->code +
                                       ": " + reply->message + hint};
    }
    if (reply->type == "metrics" || reply->type == "dump") {
        // Text-bodied service replies: print the exposition/postmortem
        // body itself, not the JSON envelope.
        std::printf("%s", reply->raw.getString("text").c_str());
        return exitOk;
    }
    if (reply->type != "result") {
        // Service replies (health/stats/pong/ok): raw JSON to stdout.
        std::printf("%s\n", payload.c_str());
        return exitOk;
    }

    return renderCompile(reply->summary, options.lintOnly, out_dir,
                         to_stdout);
}

/**
 * `--top`: live service introspection. Fetches one stats reply from a
 * running daemon and renders a compact table (inflight, queue depth,
 * shed/error counts, cache tiers, latency quantiles). With
 * --interval-ms N the fetch repeats until SIGINT/SIGTERM.
 */
int
runTop(const std::string &socket_path, long interval_ms)
{
    signals::install();
    bool first = true;
    do {
        if (!first)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(interval_ms));
        first = false;
        if (signals::terminationRequested())
            break;

        serve::Request request;
        request.kind = serve::RequestKind::Stats;
        std::string error;
        net::Connection conn = net::connectUnix(socket_path, error);
        if (!conn.valid())
            throw CliError{exitServer, "cannot connect to '" +
                                           socket_path + "': " + error};
        if (conn.sendFrame(serve::emitRequest(request)) !=
            net::IoStatus::Ok)
            throw CliError{exitServer, "cannot send request to '" +
                                           socket_path + "'"};
        std::string payload;
        net::IoStatus st =
            conn.recvFrame(payload, -1, serve::maxReplyFrame);
        if (st != net::IoStatus::Ok)
            throw CliError{exitServer,
                           std::string("server connection failed (") +
                               net::ioStatusName(st) + ")"};
        auto reply = serve::parseReply(payload, error);
        if (!reply || reply->type != "stats")
            throw CliError{exitServer, "bad stats reply: " + error};

        const json::Value &raw = reply->raw;
        const json::Value *server = raw.find("server");
        const json::Value *metrics = raw.find("metrics");
        auto serverCount = [&](const char *name) -> double {
            return server ? server->getNumber(name, 0.0) : 0.0;
        };
        double requests = serverCount("requests");
        double shed = serverCount("shed");
        std::printf("longnail --top %s\n", socket_path.c_str());
        std::printf("  inflight %.0f/%.0f  queue %.0f  draining %s\n",
                    raw.getNumber("inFlight", 0.0),
                    raw.getNumber("admissionMax", 0.0),
                    raw.getNumber("queueDepth", 0.0),
                    raw.getBool("draining", false) ? "yes" : "no");
        std::printf("  requests %.0f  compiles %.0f  shed %.0f "
                    "(%.1f%%)  deadline %.0f  faults %.0f  proto-errs "
                    "%.0f\n",
                    requests, serverCount("compiles"), shed,
                    requests > 0 ? 100.0 * shed / requests : 0.0,
                    serverCount("deadlineMisses"),
                    serverCount("injectedFaults"),
                    serverCount("protocolErrors"));
        std::printf("  cache: mem %.0f  disk %.0f\n",
                    serverCount("memHits"), serverCount("diskHits"));
        if (metrics) {
            if (const json::Value *hists = metrics->find("histograms")) {
                if (const json::Value *lat =
                        hists->find("serve.request_ms")) {
                    std::printf("  latency ms: p50 %.2f  p95 %.2f  "
                                "p99 %.2f  max %.2f  (n=%.0f)\n",
                                lat->getNumber("p50", 0.0),
                                lat->getNumber("p95", 0.0),
                                lat->getNumber("p99", 0.0),
                                lat->getNumber("max", 0.0),
                                lat->getNumber("count", 0.0));
                }
            }
        }
        std::fflush(stdout);
    } while (interval_ms > 0 && !signals::terminationRequested());
    return exitOk;
}

int
run(int argc, char **argv)
{
    driver::CompileOptions options;
    std::string input, target, out_dir = ".", datasheet_path;
    std::string trace_path, stats_path;
    std::string log_path, metrics_path, postmortem_dir;
    std::vector<std::string> inputs;
    std::string cores_arg, cache_dir;
    unsigned long jobs = 1, cache_limit = 0;
    bool jobs_given = false;
    bool to_stdout = false, report = false;
    bool serve_mode = false;
    std::string socket_path, connect_path, request_type = "compile";
    std::string top_path;
    long deadline_ms = -1, admission_max = -1, idle_timeout_ms = 0;
    long drain_grace_ms = -1, mem_cache = -1, interval_ms = 0;

    auto parseCount = [](const std::string &text) -> unsigned long {
        try {
            size_t pos = 0;
            unsigned long value = std::stoul(text, &pos);
            if (pos != text.size())
                usage();
            return value;
        } catch (const CliError &) {
            throw;
        } catch (const std::exception &) {
            usage();
        }
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--core") {
            options.coreName = next();
        } else if (arg == "--datasheet") {
            datasheet_path = next();
        } else if (arg == "--target") {
            target = next();
        } else if (arg == "--timing") {
            std::string mode = next();
            if (mode == "uniform")
                options.timingMode = sched::TimingMode::Uniform;
            else if (mode == "library")
                options.timingMode = sched::TimingMode::Library;
            else
                usage();
        } else if (arg == "--cycle-time") {
            try {
                options.cycleTimeNs = std::stod(next());
            } catch (const std::exception &) {
                usage();
            }
        } else if (arg == "--max-errors") {
            try {
                options.maxErrors = std::stoul(next());
            } catch (const std::exception &) {
                usage();
            }
        } else if (arg == "-o") {
            out_dir = next();
        } else if (arg == "--stdout") {
            to_stdout = true;
        } else if (arg == "--report") {
            report = true;
        } else if (arg == "-O0") {
            options.optLevel = 0;
        } else if (arg == "-O1") {
            options.optLevel = 1;
        } else if (arg.rfind("--dump-analysis=", 0) == 0) {
            options.dumpAnalysisFile =
                arg.substr(std::strlen("--dump-analysis="));
            if (options.dumpAnalysisFile.empty())
                usage();
        } else if (arg == "--lint") {
            options.lintOnly = true;
        } else if (arg == "--ln-codes") {
            std::fputs(analysis::renderLnCodeTable().c_str(), stdout);
            return exitOk;
        } else if (arg == "--validate") {
            options.validate = true;
        } else if (arg == "--verify-ir") {
            options.verifyIr = true;
        } else if (arg == "--Werror") {
            options.warningsAsErrors = true;
        } else if (arg.rfind("--Werror=", 0) == 0) {
            options.warningsAsErrorCodes.push_back(
                arg.substr(std::strlen("--Werror=")));
        } else if (arg.rfind("--no-warn=", 0) == 0) {
            options.suppressedWarningCodes.push_back(
                arg.substr(std::strlen("--no-warn=")));
        } else if (arg.rfind("--trace-json=", 0) == 0) {
            trace_path = arg.substr(std::strlen("--trace-json="));
        } else if (arg == "--trace-json") {
            trace_path = next();
        } else if (arg.rfind("--stats=", 0) == 0) {
            stats_path = arg.substr(std::strlen("--stats="));
        } else if (arg == "--stats") {
            stats_path = next();
        } else if (arg.rfind("--log=", 0) == 0) {
            log_path = arg.substr(std::strlen("--log="));
        } else if (arg == "--log") {
            log_path = next();
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            metrics_path = arg.substr(std::strlen("--metrics-out="));
        } else if (arg == "--metrics-out") {
            metrics_path = next();
        } else if (arg.rfind("--postmortem-dir=", 0) == 0) {
            postmortem_dir = arg.substr(std::strlen("--postmortem-dir="));
        } else if (arg == "--postmortem-dir") {
            postmortem_dir = next();
        } else if (arg == "--quiet") {
            setQuiet(true);
        } else if (arg == "--jobs") {
            jobs = parseCount(next());
            jobs_given = true;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            jobs = parseCount(arg.substr(std::strlen("--jobs=")));
            jobs_given = true;
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
            jobs = parseCount(arg.substr(2));
            jobs_given = true;
        } else if (arg == "--cores") {
            cores_arg = next();
        } else if (arg.rfind("--cores=", 0) == 0) {
            cores_arg = arg.substr(std::strlen("--cores="));
        } else if (arg == "--cache-dir") {
            cache_dir = next();
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            cache_dir = arg.substr(std::strlen("--cache-dir="));
        } else if (arg == "--cache-limit") {
            cache_limit = parseCount(next());
        } else if (arg.rfind("--cache-limit=", 0) == 0) {
            cache_limit =
                parseCount(arg.substr(std::strlen("--cache-limit=")));
        } else if (arg == "--serve") {
            serve_mode = true;
        } else if (arg == "--socket") {
            socket_path = next();
        } else if (arg.rfind("--socket=", 0) == 0) {
            socket_path = arg.substr(std::strlen("--socket="));
        } else if (arg == "--connect") {
            connect_path = next();
        } else if (arg.rfind("--connect=", 0) == 0) {
            connect_path = arg.substr(std::strlen("--connect="));
        } else if (arg == "--request") {
            request_type = next();
        } else if (arg.rfind("--request=", 0) == 0) {
            request_type = arg.substr(std::strlen("--request="));
        } else if (arg == "--deadline-ms") {
            deadline_ms = long(parseCount(next()));
        } else if (arg.rfind("--deadline-ms=", 0) == 0) {
            deadline_ms = long(
                parseCount(arg.substr(std::strlen("--deadline-ms="))));
        } else if (arg == "--admission-max") {
            admission_max = long(parseCount(next()));
        } else if (arg.rfind("--admission-max=", 0) == 0) {
            admission_max = long(parseCount(
                arg.substr(std::strlen("--admission-max="))));
        } else if (arg == "--idle-timeout-ms") {
            idle_timeout_ms = long(parseCount(next()));
        } else if (arg.rfind("--idle-timeout-ms=", 0) == 0) {
            idle_timeout_ms = long(parseCount(
                arg.substr(std::strlen("--idle-timeout-ms="))));
        } else if (arg == "--drain-grace-ms") {
            drain_grace_ms = long(parseCount(next()));
        } else if (arg.rfind("--drain-grace-ms=", 0) == 0) {
            drain_grace_ms = long(parseCount(
                arg.substr(std::strlen("--drain-grace-ms="))));
        } else if (arg == "--mem-cache") {
            mem_cache = long(parseCount(next()));
        } else if (arg.rfind("--mem-cache=", 0) == 0) {
            mem_cache = long(
                parseCount(arg.substr(std::strlen("--mem-cache="))));
        } else if (arg == "--top") {
            top_path = next();
        } else if (arg.rfind("--top=", 0) == 0) {
            top_path = arg.substr(std::strlen("--top="));
        } else if (arg == "--interval-ms") {
            interval_ms = long(parseCount(next()));
        } else if (arg.rfind("--interval-ms=", 0) == 0) {
            interval_ms = long(
                parseCount(arg.substr(std::strlen("--interval-ms="))));
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
        } else {
            inputs.push_back(arg);
        }
    }
    // Serve and client modes dispatch before the local compile paths.
    if (serve_mode) {
        if (!connect_path.empty())
            throw CliError{exitUsage,
                           "--serve and --connect are exclusive"};
        if (!inputs.empty())
            throw CliError{exitUsage,
                           "--serve takes no input files (clients send "
                           "sources over the socket)"};
        return runServe(socket_path, unsigned(jobs), jobs_given,
                        admission_max, idle_timeout_ms, deadline_ms,
                        drain_grace_ms, mem_cache, cache_dir,
                        size_t(cache_limit), log_path, trace_path,
                        metrics_path, postmortem_dir);
    }

    // Non-serve modes own their observability sinks directly (in serve
    // mode the Server opens/closes them around its lifetime instead).
    if (!log_path.empty()) {
        std::string log_error;
        if (!obs::EventLog::instance().open(log_path, log_error))
            throw CliError{exitIo, log_error};
    }
    if (!postmortem_dir.empty()) {
        obs::flightrec::setPostmortemDir(postmortem_dir);
        obs::flightrec::installCrashHandler();
    }

    if (!top_path.empty()) {
        if (!connect_path.empty())
            throw CliError{exitUsage,
                           "--top and --connect are exclusive"};
        return runTop(top_path, interval_ms);
    }
    if (!connect_path.empty()) {
        if (!datasheet_path.empty())
            throw CliError{exitUsage,
                           "--datasheet cannot be combined with "
                           "--connect (datasheet files are not sent "
                           "over the wire)"};
        if (report)
            throw CliError{exitUsage,
                           "--report needs a local compile, not "
                           "--connect"};
        if (jobs_given || !cores_arg.empty() || !cache_dir.empty())
            throw CliError{exitUsage,
                           "batch flags cannot be combined with "
                           "--connect (the server owns its own pool "
                           "and cache)"};
        // A client-side trace needs the tracer on before the request
        // span opens.
        if (!trace_path.empty()) {
            obs::setEnabled(true);
            obs::Tracer::instance().clear();
        }
        return runClient(connect_path, request_type, inputs, target,
                         options, deadline_ms, out_dir, to_stdout,
                         trace_path);
    }

    if (inputs.empty())
        usage();

    // Cooperative Ctrl-C/SIGTERM for the local compile paths: the
    // in-flight compile stops at its next phase boundary (LN3011) and
    // the process exits with the deterministic interrupt code.
    signals::install();
    options.cancel = &signals::token();

    // Batch mode engages when any batch-only flag appears or several
    // inputs are given; otherwise the classic single-compile path runs
    // unchanged.
    bool batch_mode = inputs.size() > 1 || jobs_given ||
                      !cache_dir.empty() || !cores_arg.empty();
    if (!batch_mode)
        input = inputs.front();
    if (batch_mode && !cores_arg.empty() && !datasheet_path.empty())
        throw CliError{exitUsage,
                       "--datasheet cannot be combined with --cores "
                       "(a datasheet pins the core)"};

    scaiev::Datasheet custom_sheet;
    if (!datasheet_path.empty()) {
        std::string text = readFile(datasheet_path);
        DiagnosticEngine sheet_diags;
        try {
            auto sheet = scaiev::Datasheet::fromYaml(yaml::parse(text),
                                                     sheet_diags);
            if (!sheet)
                throw CliError{exitIo, "bad datasheet '" +
                                           datasheet_path + "':\n" +
                                           sheet_diags.str()};
            custom_sheet = std::move(*sheet);
        } catch (const std::exception &e) {
            // yaml::parse() reports the offending line itself.
            throw CliError{exitIo, "bad datasheet '" + datasheet_path +
                                       "': " + e.what()};
        }
        options.coreName = custom_sheet.coreName;
        options.datasheet = &custom_sheet;
    }

    // Observability (docs/observability.md): any of these flags
    // switches the process-wide instrumentation on; with all off every
    // span and counter in the pipeline stays a near-no-op.
    bool observing = !trace_path.empty() || !stats_path.empty() ||
                     !metrics_path.empty();
    if (observing) {
        obs::setEnabled(true);
        obs::Tracer::instance().clear();
        obs::Registry::instance().clear();
    }

    if (batch_mode) {
        int code = runBatch(inputs, target, options, cores_arg,
                            cache_dir, size_t(cache_limit),
                            unsigned(jobs), out_dir, to_stdout, report);
        if (!trace_path.empty())
            writeFile(trace_path,
                      obs::Tracer::instance().toChromeJson());
        if (!stats_path.empty()) {
            if (stats_path == "-")
                std::printf(
                    "%s", obs::Registry::instance().toTable().c_str());
            else
                writeFile(stats_path,
                          obs::Registry::instance().toYaml());
        }
        if (!metrics_path.empty())
            writeFile(metrics_path,
                      obs::Registry::instance().toPrometheus());
        if (signals::terminationRequested()) {
            // Interrupted runs must leave the cache directory exactly
            // as a completed one would: sweep temp files an aborted
            // cacheStore never published.
            if (!cache_dir.empty()) {
                size_t removed = driver::cacheCleanupTmp(cache_dir);
                if (removed)
                    inform("removed ", removed,
                           " in-progress cache temp file(s)");
            }
            std::fprintf(stderr,
                         "interrupted by signal %d; partial results "
                         "above\n",
                         signals::lastSignal());
            return exitInterrupted;
        }
        return code;
    }

    // One-shot compiles are request "r1": trivially deterministic, and
    // it makes local logs grep the same way serve logs do.
    obs::RequestScope rid_scope("r1");
    obs::logEvent(obs::LogLevel::Info, "compile.start",
                  {{"input", input}});
    driver::CompiledIsax compiled =
        driver::compile(readFile(input), target, options);
    obs::logEvent(obs::LogLevel::Info, "compile.done",
                  {{"outcome", compiled.ok() ? "ok" : "compile-error"}});

    // Dump trace/stats before exiting: observability must also cover
    // failed compiles (that is when you need it most).
    if (!trace_path.empty())
        writeFile(trace_path, obs::Tracer::instance().toChromeJson());
    if (!stats_path.empty()) {
        if (stats_path == "-")
            std::printf("%s",
                        obs::Registry::instance().toTable().c_str());
        else
            writeFile(stats_path,
                      obs::Registry::instance().toYaml());
    }
    if (!metrics_path.empty())
        writeFile(metrics_path,
                  obs::Registry::instance().toPrometheus());

    if (signals::terminationRequested()) {
        std::fprintf(stderr, "interrupted by signal %d\n",
                     signals::lastSignal());
        return exitInterrupted;
    }

    driver::CompileSummary summary = driver::summarize(compiled);
    int code = renderCompile(summary, options.lintOnly, out_dir, to_stdout);
    if (code != exitOk || options.lintOnly)
        return code;

    if (report) {
        std::printf("\n%s on %s\n", compiled.name.c_str(),
                    compiled.coreName.c_str());
        printSchedulerLine(summary);
        if (options.optLevel >= 1) {
            std::printf("  optimizer: %llu rewrite%s, %u proved, "
                        "%u cosim-agreed, %u spawn graph%s optimized, "
                        "%u skipped\n",
                        static_cast<unsigned long long>(
                            compiled.report.passRewrites),
                        compiled.report.passRewrites == 1 ? "" : "s",
                        compiled.report.passProved,
                        compiled.report.passCosimAgreed,
                        compiled.report.spawnGraphsOptimized,
                        compiled.report.spawnGraphsOptimized == 1
                            ? ""
                            : "s",
                        compiled.report.spawnGraphsSkipped);
            for (const auto &[unit, rewrites] :
                 compiled.report.spawnRewritesByUnit)
                std::printf("    spawn %-16s %llu rewrite%s "
                            "(isolation proved)\n",
                            unit.c_str(),
                            static_cast<unsigned long long>(rewrites),
                            rewrites == 1 ? "" : "s");
        }
        if (options.validate)
            std::printf("  validation: %u unit%s checked, %u proved, "
                        "%u refuted, %llu cex cycles\n",
                        compiled.report.tvUnitsChecked,
                        compiled.report.tvUnitsChecked == 1 ? "" : "s",
                        compiled.report.tvProved,
                        compiled.report.tvRefuted,
                        static_cast<unsigned long long>(
                            compiled.report.tvCexCycles));
        std::printf("  phases (%.2f ms):", compiled.report.totalWallMs());
        for (const auto &entry : compiled.report.phases)
            std::printf(" %s=%.2fms", entry.name.c_str(),
                        entry.wallMs);
        std::printf("\n");
        std::vector<const hwgen::GeneratedModule *> modules;
        for (size_t i = 0; i < compiled.units.size(); ++i) {
            const driver::CompiledUnit &unit = compiled.units[i];
            modules.push_back(&unit.module);
            printUnitLine(summary.units[i]);
            for (const auto &port : unit.module.ports)
                std::printf("    %-16s stage %2d  %s\n",
                            scaiev::ScheduledUse{
                                port.iface, port.reg, port.stage,
                                !port.validPort.empty(), port.mode}
                                .displayName()
                                .c_str(),
                            port.stage,
                            scaiev::executionModeName(port.mode));
        }
        const scaiev::Datasheet &sheet =
            options.datasheet ? *options.datasheet
                              : scaiev::Datasheet::forCore(
                                    options.coreName);
        asic::AsicFlow flow(sheet);
        asic::SynthesisResult base = flow.synthesizeBase();
        asic::SynthesisResult ext =
            flow.synthesizeExtended(compiled.name, modules);
        std::printf("  ASIC: area %.0f um2 (%+.1f%%), fmax %.0f MHz "
                    "(%+.1f%%)\n",
                    ext.areaUm2, ext.areaOverheadPercent(base),
                    ext.fmaxMhz, ext.freqDeltaPercent(base));
    }
    return exitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string arm_error = failpoint::armFromEnv();
    if (!arm_error.empty()) {
        std::fprintf(stderr, "error: %s\n", arm_error.c_str());
        return exitUsage;
    }
    int code;
    try {
        code = run(argc, argv);
    } catch (const CliError &e) {
        if (!e.message.empty())
            std::fprintf(stderr, "error: %s\n", e.message.c_str());
        code = e.code;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        code = exitIo;
    }
    // Flush pending rate-limit summaries of a --log opened by run()
    // (no-op when none is open; the serve path already closed its own).
    obs::EventLog::instance().close();
    return code;
}
