/**
 * @file
 * Wire-protocol implementation.
 */

#include "protocol.hh"

#include <sstream>

namespace gpuscale {
namespace service {

namespace {

/**
 * Largest request id a frame may carry: 2^53, the largest integer a
 * JSON number (an IEEE double) holds exactly.  A larger id could not
 * be echoed back unchanged, and converting it to the uint64_t id is
 * undefined once it passes 2^64.
 */
constexpr double kMaxRequestId = 9007199254740992.0;

} // namespace

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::BadRequest:
        return "BAD_REQUEST";
    case ErrorCode::NotFound:
        return "NOT_FOUND";
    case ErrorCode::RetryAfter:
        return "RETRY_AFTER";
    case ErrorCode::DeadlineExceeded:
        return "DEADLINE_EXCEEDED";
    case ErrorCode::ShuttingDown:
        return "SHUTTING_DOWN";
    case ErrorCode::Internal:
        return "INTERNAL";
    }
    return "INTERNAL";
}

bool
parseRequest(const std::string &line, Request *request,
             std::string *error)
{
    obs::JsonValue doc;
    try {
        doc = obs::parseJson(line);
    } catch (const std::exception &e) {
        *error = std::string("malformed JSON: ") + e.what();
        return false;
    }
    if (!doc.isObject()) {
        *error = "request frame must be a JSON object";
        return false;
    }

    Request req;
    if (const auto *id = doc.find("id"); id != nullptr) {
        if (!id->isNumber() || id->number < 0 ||
            id->number > kMaxRequestId) {
            *error = "\"id\" must be a number in [0, 2^53]";
            return false;
        }
        req.id = static_cast<uint64_t>(id->number);
    }
    const auto *op = doc.find("op");
    if (op == nullptr || !op->isString() || op->str.empty()) {
        *error = "missing or empty \"op\"";
        return false;
    }
    req.op = op->str;
    if (const auto *client = doc.find("client"); client != nullptr) {
        if (!client->isString()) {
            *error = "\"client\" must be a string";
            return false;
        }
        req.client = client->str;
    }
    if (const auto *dl = doc.find("deadline_ms"); dl != nullptr) {
        if (!dl->isNumber() || dl->number < 0 ||
            dl->number > kMaxDeadlineMs) {
            *error = "\"deadline_ms\" must be a number of "
                     "milliseconds in [0, one day]";
            return false;
        }
        req.deadline_ms = dl->number;
    }
    if (const auto *params = doc.find("params"); params != nullptr) {
        if (!params->isObject()) {
            *error = "\"params\" must be an object";
            return false;
        }
        req.params = *params;
    }
    *request = std::move(req);
    return true;
}

std::string
renderResult(uint64_t id,
             const std::function<void(obs::JsonWriter &)> &fill)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.key("id").value(id);
    w.key("ok").value(true);
    w.key("result");
    fill(w);
    w.endObject();
    os << '\n';
    return os.str();
}

std::string
renderRawResult(uint64_t id, const std::string &raw_json)
{
    // The envelope is spliced by hand because the result is already a
    // rendered document (the registry snapshot); JsonWriter would
    // re-escape it.  The envelope's own members are writer-rendered
    // above, so only this splice bypasses it.
    std::ostringstream os;
    os << "{\"id\":" << id << ",\"ok\":true,\"result\":" << raw_json
       << "}\n";
    return os.str();
}

std::string
renderError(uint64_t id, ErrorCode code, const std::string &message,
            double retry_after_ms)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.key("id").value(id);
    w.key("ok").value(false);
    w.key("error").beginObject();
    w.key("code").value(errorCodeName(code));
    w.key("message").value(message);
    if (retry_after_ms > 0.0)
        w.key("retry_after_ms").value(retry_after_ms);
    w.endObject();
    w.endObject();
    os << '\n';
    return os.str();
}

} // namespace service
} // namespace gpuscale
