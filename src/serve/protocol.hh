/**
 * @file
 * The compile-server wire protocol (docs/compile-server.md).
 *
 * Transport: length-prefixed frames over a Unix-domain socket
 * (support/socket.hh); every frame payload is one JSON document.
 * Requests carry a "type" ("compile", "health", "stats", "metrics",
 * "dump", "ping", "shutdown") and an optional client-chosen "id"
 * echoed verbatim in the reply. Every request may also carry an
 * observability context: "rid" (the end-to-end request id; the server
 * mints one when absent and echoes it in the reply either way) and a
 * client trace context "traceId"/"spanId" that becomes the parent of
 * the server-side request span (docs/observability.md). Replies are
 * either:
 *
 *   - "result": the outcome of a compile -- the deterministic
 *     CompileSummary as driver::toJson() encodes it (the disk cache's
 *     entry format) plus the envelope members type, id, rid and
 *     cacheTier, both for successes (artifacts) and ordinary compile
 *     failures (diagnostics). Server replies are byte-identical to
 *     one-shot CLI output for the same inputs because both render
 *     from the same CompileSummary.
 *   - "error": a serve-layer failure that never produced a summary:
 *     protocol errors (LN3101), oversize frames (LN3102), idle
 *     timeout (LN3103), admission shed (LN3110, with retryAfterMs),
 *     deadline exceeded (LN3111), draining (LN3112), injected server
 *     fault (LN3904).
 *   - "health" / "stats" / "metrics" / "dump" / "pong" / "ok":
 *     service replies.
 *
 * Everything here is shared by the server and the --connect client so
 * the two cannot drift.
 */

#ifndef LONGNAIL_SERVE_PROTOCOL_HH
#define LONGNAIL_SERVE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>

#include "driver/cache.hh"
#include "driver/longnail.hh"
#include "support/json.hh"

namespace longnail {
namespace serve {

/** Frame-size bounds (the Oversize guard in recvFrame). Requests are
 * bounded tightly -- a CoreDSL source is kilobytes; replies carry
 * generated SystemVerilog and get more headroom. */
constexpr uint32_t maxRequestFrame = 4u << 20;  // 4 MiB
constexpr uint32_t maxReplyFrame = 64u << 20;   // 64 MiB

// Serve-layer error codes (docs/failure-model.md).
inline constexpr const char *codeProtocol = "LN3101";
inline constexpr const char *codeOversize = "LN3102";
inline constexpr const char *codeIdleTimeout = "LN3103";
inline constexpr const char *codeOverloaded = "LN3110";
inline constexpr const char *codeDeadline = "LN3111";
inline constexpr const char *codeDraining = "LN3112";
inline constexpr const char *codeInjected = "LN3904";

/** What a parsed request asks for. */
enum class RequestKind
{
    Compile,
    Health,
    Stats,
    Metrics, ///< Prometheus text exposition of the server's Registry
    Dump,    ///< on-demand flight-recorder postmortem
    Ping,
    Shutdown
};

/** One decoded request frame. */
struct Request
{
    RequestKind kind = RequestKind::Ping;
    /** Client-chosen correlation id, echoed in the reply ("" = none). */
    std::string id;

    // Observability context (any request kind; all optional).
    /** End-to-end request id; server mints "s<n>" when empty. */
    std::string rid;
    /** Client trace context: the server request span is parented under
     * this client span in the merged Chrome trace. */
    std::string traceId;
    std::string spanId;

    // Compile-only fields.
    std::string unitName; ///< display name for diagnostics/artifacts
    std::string source;
    std::string target;
    driver::CompileOptions options;
    /** Per-request deadline in ms; < 0 = use the server default. A
     * deadline of 0 is already expired (deterministic timeout tests). */
    long deadlineMs = -1;
};

/**
 * Parse and validate one request payload. Returns std::nullopt with
 * @p error set on malformed JSON, a missing/unknown "type", or bad
 * compile fields -- the server turns that into an LN3101 reply.
 */
std::optional<Request> parseRequest(const std::string &payload,
                                    std::string &error);

/** Serialize @p request (the client side of parseRequest). */
std::string emitRequest(const Request &request);

/** Build a "result" reply from the deterministic compile summary.
 * @p rid, when non-empty, is echoed so the client can correlate the
 * reply with the server's log records. */
std::string emitResultReply(const driver::CompileSummary &summary,
                            const std::string &id,
                            const std::string &cacheTier,
                            const std::string &rid = "");

/** Build an "error" reply. @p retry_after_ms >= 0 adds retryAfterMs
 * (the shed reply's backpressure hint). */
std::string emitErrorReply(const std::string &code,
                           const std::string &message,
                           const std::string &id,
                           long retry_after_ms = -1,
                           const std::string &rid = "");

/** A decoded reply (the client side). */
struct Reply
{
    std::string type; ///< "result", "error", "health", "stats", ...
    std::string id;
    /** Request id the server processed this request under. */
    std::string rid;
    // "result" fields.
    driver::CompileSummary summary;
    std::string cacheTier; ///< "mem", "disk" or "fresh"
    // "error" fields.
    std::string code;
    std::string message;
    long retryAfterMs = -1;
    /** Raw JSON for service replies (health/stats). */
    json::Value raw;
};

/** Parse one reply payload; std::nullopt + @p error when malformed,
 * including a "result" whose summary driver::fromJson() rejects. */
std::optional<Reply> parseReply(const std::string &payload,
                                std::string &error);

} // namespace serve
} // namespace longnail

#endif // LONGNAIL_SERVE_PROTOCOL_HH
