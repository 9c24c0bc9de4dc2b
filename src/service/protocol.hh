/**
 * @file
 * gpuscaled wire protocol: newline-delimited JSON frames.
 *
 * One request per line, one response per line, always in order.  A
 * request is `{"id":N,"op":"...","params":{...},"deadline_ms":N}`;
 * the response echoes the id with either `"ok":true,"result":{...}`
 * or `"ok":false,"error":{"code":...,"message":...}`.  Connection-
 * level failures (unparseable line, shed before a request id is
 * known) use id 0.  Every error carries one of the typed codes below
 * so clients can branch without string-matching messages; RETRY_AFTER
 * additionally carries `retry_after_ms`.  See docs/service.md for the
 * full contract and example frames.
 *
 * Rendering goes through obs::JsonWriter, so doubles are emitted
 * locale-independently in shortest round-trip form — the bitwise
 * resume test compares census numbers across the socket and relies on
 * this.
 */

#ifndef GPUSCALE_SERVICE_PROTOCOL_HH
#define GPUSCALE_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <functional>
#include <string>

#include "base/string_util.hh"
#include "obs/json.hh"

namespace gpuscale {
namespace service {

/** Typed error codes; the wire form is the upper-snake name. */
enum class ErrorCode {
    BadRequest,       ///< malformed frame or invalid params
    NotFound,         ///< unknown kernel or op
    RetryAfter,       ///< shed by admission control; retry later
    DeadlineExceeded, ///< request deadline passed before completion
    ShuttingDown,     ///< service is draining; no new work
    Internal,         ///< unexpected failure (absorbed fault, bug)
};

/** Wire name of a code, e.g. "RETRY_AFTER". */
const char *errorCodeName(ErrorCode code);

/**
 * Longest deadline, in milliseconds, a request frame or the daemon's
 * --deadline-ms / --drain-ms may ask for: base's one-day cap on any
 * millisecond span read from input.
 */
constexpr double kMaxDeadlineMs = kMaxDurationMs;

/** One parsed request frame. */
struct Request {
    uint64_t id = 0;
    std::string op;
    /** Optional per-request client identity for quota accounting. */
    std::string client;
    /** 0 means "use the service default deadline". */
    double deadline_ms = 0.0;
    /** The raw "params" object; Null when absent. */
    obs::JsonValue params;
};

/**
 * Parse one request line.  Returns false (filling *error with a
 * human-readable reason) on malformed JSON, a non-object frame, a
 * missing/empty "op", an "id" outside [0, 2^53], or a "deadline_ms"
 * outside [0, kMaxDeadlineMs]; the caller answers with BAD_REQUEST.
 */
bool parseRequest(const std::string &line, Request *request,
                  std::string *error);

/**
 * Render a success frame: `{"id":N,"ok":true,"result":<fill>}` plus
 * the trailing newline.  `fill` writes exactly one JSON value (object,
 * array, or scalar) into the supplied writer.
 */
std::string renderResult(
    uint64_t id, const std::function<void(obs::JsonWriter &)> &fill);

/**
 * Render a success frame whose result is a pre-rendered JSON document
 * (e.g. Registry::snapshotJson()), spliced in verbatim.
 */
std::string renderRawResult(uint64_t id, const std::string &raw_json);

/**
 * Render an error frame.  `retry_after_ms` > 0 adds the
 * "retry_after_ms" member (meaningful for RETRY_AFTER).
 */
std::string renderError(uint64_t id, ErrorCode code,
                        const std::string &message,
                        double retry_after_ms = 0.0);

} // namespace service
} // namespace gpuscale

#endif // GPUSCALE_SERVICE_PROTOCOL_HH
