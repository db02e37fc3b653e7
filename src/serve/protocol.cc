#include "serve/protocol.hh"

namespace longnail {
namespace serve {

std::optional<Request>
parseRequest(const std::string &payload, std::string &error)
{
    auto doc = json::parse(payload, &error);
    if (!doc)
        return std::nullopt;
    if (!doc->isObject()) {
        error = "request must be a JSON object";
        return std::nullopt;
    }

    Request req;
    req.id = doc->getString("id");
    // Observability context travels on every request kind, so read it
    // before the type dispatch below returns early.
    req.rid = doc->getString("rid");
    req.traceId = doc->getString("traceId");
    req.spanId = doc->getString("spanId");
    std::string type = doc->getString("type");
    if (type == "compile") {
        req.kind = RequestKind::Compile;
    } else if (type == "health") {
        req.kind = RequestKind::Health;
        return req;
    } else if (type == "stats") {
        req.kind = RequestKind::Stats;
        return req;
    } else if (type == "metrics") {
        req.kind = RequestKind::Metrics;
        return req;
    } else if (type == "dump") {
        req.kind = RequestKind::Dump;
        return req;
    } else if (type == "ping") {
        req.kind = RequestKind::Ping;
        return req;
    } else if (type == "shutdown") {
        req.kind = RequestKind::Shutdown;
        return req;
    } else if (type.empty()) {
        error = "request has no 'type'";
        return std::nullopt;
    } else {
        error = "unknown request type '" + type + "'";
        return std::nullopt;
    }

    const json::Value *source = doc->find("source");
    if (!source || !source->isString()) {
        error = "compile request needs a string 'source'";
        return std::nullopt;
    }
    req.source = source->str();
    req.unitName = doc->getString("name", "request");
    req.target = doc->getString("target");
    if (const json::Value *opts = doc->find("options")) {
        if (!driver::fromJson(*opts, req.options, error))
            return std::nullopt;
    }
    const json::Value *deadline = doc->find("deadlineMs");
    if (deadline) {
        if (!deadline->isNumber() || deadline->number() < 0) {
            error = "'deadlineMs' must be a non-negative number";
            return std::nullopt;
        }
        req.deadlineMs = long(deadline->number());
    }
    return req;
}

std::string
emitRequest(const Request &request)
{
    json::Value obj = json::Value::object();
    switch (request.kind) {
    case RequestKind::Compile:
        obj.set("type", "compile");
        break;
    case RequestKind::Health:
        obj.set("type", "health");
        break;
    case RequestKind::Stats:
        obj.set("type", "stats");
        break;
    case RequestKind::Metrics:
        obj.set("type", "metrics");
        break;
    case RequestKind::Dump:
        obj.set("type", "dump");
        break;
    case RequestKind::Ping:
        obj.set("type", "ping");
        break;
    case RequestKind::Shutdown:
        obj.set("type", "shutdown");
        break;
    }
    if (!request.id.empty())
        obj.set("id", request.id);
    if (!request.rid.empty())
        obj.set("rid", request.rid);
    if (!request.traceId.empty())
        obj.set("traceId", request.traceId);
    if (!request.spanId.empty())
        obj.set("spanId", request.spanId);
    if (request.kind == RequestKind::Compile) {
        obj.set("name", request.unitName);
        obj.set("source", request.source);
        if (!request.target.empty())
            obj.set("target", request.target);
        obj.set("options", driver::toJson(request.options));
        if (request.deadlineMs >= 0)
            obj.set("deadlineMs", int64_t(request.deadlineMs));
    }
    return obj.emit();
}

std::string
emitResultReply(const driver::CompileSummary &summary,
                const std::string &id, const std::string &cacheTier,
                const std::string &rid)
{
    json::Value obj = driver::toJson(summary);
    obj.set("type", "result");
    if (!id.empty())
        obj.set("id", id);
    if (!rid.empty())
        obj.set("rid", rid);
    obj.set("cacheTier", cacheTier);
    return obj.emit();
}

std::string
emitErrorReply(const std::string &code, const std::string &message,
               const std::string &id, long retry_after_ms,
               const std::string &rid)
{
    json::Value obj = json::Value::object();
    obj.set("type", "error");
    if (!id.empty())
        obj.set("id", id);
    if (!rid.empty())
        obj.set("rid", rid);
    obj.set("code", code);
    obj.set("message", message);
    if (retry_after_ms >= 0)
        obj.set("retryAfterMs", int64_t(retry_after_ms));
    return obj.emit();
}

std::optional<Reply>
parseReply(const std::string &payload, std::string &error)
{
    auto doc = json::parse(payload, &error);
    if (!doc)
        return std::nullopt;
    if (!doc->isObject()) {
        error = "reply must be a JSON object";
        return std::nullopt;
    }

    Reply reply;
    reply.type = doc->getString("type");
    reply.id = doc->getString("id");
    reply.rid = doc->getString("rid");
    if (reply.type.empty()) {
        error = "reply has no 'type'";
        return std::nullopt;
    }

    if (reply.type == "error") {
        reply.code = doc->getString("code");
        reply.message = doc->getString("message");
        const json::Value *retry = doc->find("retryAfterMs");
        if (retry && retry->isNumber())
            reply.retryAfterMs = long(retry->number());
        return reply;
    }
    if (reply.type != "result") {
        reply.raw = std::move(*doc);
        return reply;
    }

    reply.cacheTier = doc->getString("cacheTier", "fresh");
    if (!driver::fromJson(*doc, reply.summary, error))
        return std::nullopt;
    return reply;
}

} // namespace serve
} // namespace longnail
