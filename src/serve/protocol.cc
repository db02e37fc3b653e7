#include "serve/protocol.hh"

namespace longnail {
namespace serve {

namespace {

/** Read a string-array member into @p out; absent = leave empty. */
bool
readStringArray(const json::Value &obj, const std::string &key,
                std::vector<std::string> &out, std::string &error)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return true;
    if (!v->isArray()) {
        error = "'" + key + "' must be an array of strings";
        return false;
    }
    for (const auto &item : v->items()) {
        if (!item.isString()) {
            error = "'" + key + "' must be an array of strings";
            return false;
        }
        out.push_back(item.str());
    }
    return true;
}

json::Value
stringArray(const std::vector<std::string> &items)
{
    json::Value arr = json::Value::array();
    for (const auto &s : items)
        arr.push(s);
    return arr;
}

} // namespace

json::Value
encodeOptions(const driver::CompileOptions &options)
{
    json::Value obj = json::Value::object();
    obj.set("core", options.coreName);
    obj.set("timing", options.timingMode == sched::TimingMode::Library
                          ? "library"
                          : "uniform");
    if (options.cycleTimeNs != 0.0)
        obj.set("cycleTimeNs", options.cycleTimeNs);
    if (options.baseSetName != "RV32I")
        obj.set("baseSet", options.baseSetName);
    if (options.maxErrors != 0)
        obj.set("maxErrors", uint64_t(options.maxErrors));
    if (options.schedBudget.lpWorkLimit != 0)
        obj.set("lpWorkLimit", options.schedBudget.lpWorkLimit);
    if (options.optLevel != 0)
        obj.set("optLevel", uint64_t(options.optLevel));
    if (options.lintOnly)
        obj.set("lintOnly", true);
    if (options.verifyIr)
        obj.set("verifyIr", true);
    if (options.validate)
        obj.set("validate", true);
    if (options.warningsAsErrors)
        obj.set("werror", true);
    if (!options.warningsAsErrorCodes.empty())
        obj.set("werrorCodes", stringArray(options.warningsAsErrorCodes));
    if (!options.suppressedWarningCodes.empty())
        obj.set("noWarnCodes",
                stringArray(options.suppressedWarningCodes));
    return obj;
}

bool
decodeOptions(const json::Value &obj, driver::CompileOptions &options,
              std::string &error)
{
    if (!obj.isObject()) {
        error = "'options' must be an object";
        return false;
    }
    options.coreName = obj.getString("core", options.coreName);
    std::string timing = obj.getString("timing", "uniform");
    if (timing == "uniform") {
        options.timingMode = sched::TimingMode::Uniform;
    } else if (timing == "library") {
        options.timingMode = sched::TimingMode::Library;
    } else {
        error = "unknown timing mode '" + timing + "'";
        return false;
    }
    options.cycleTimeNs = obj.getNumber("cycleTimeNs", 0.0);
    if (options.cycleTimeNs < 0.0) {
        error = "'cycleTimeNs' must be >= 0";
        return false;
    }
    options.baseSetName = obj.getString("baseSet", "RV32I");
    options.maxErrors = size_t(obj.getNumber("maxErrors", 0.0));
    options.schedBudget.lpWorkLimit =
        uint64_t(obj.getNumber("lpWorkLimit", 0.0));
    double opt_level = obj.getNumber("optLevel", 0.0);
    if (opt_level < 0.0 || opt_level > 1.0) {
        error = "'optLevel' must be 0 or 1";
        return false;
    }
    options.optLevel = unsigned(opt_level);
    options.lintOnly = obj.getBool("lintOnly", false);
    options.verifyIr = obj.getBool("verifyIr", false);
    options.validate = obj.getBool("validate", false);
    options.warningsAsErrors = obj.getBool("werror", false);
    if (!readStringArray(obj, "werrorCodes",
                         options.warningsAsErrorCodes, error))
        return false;
    if (!readStringArray(obj, "noWarnCodes",
                         options.suppressedWarningCodes, error))
        return false;
    return true;
}

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
        if (!decodeOptions(*opts, req.options, error))
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
        obj.set("options", encodeOptions(request.options));
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
