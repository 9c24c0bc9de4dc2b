/**
 * @file
 * Wire-protocol tests: request parsing with typed rejections, frame
 * rendering round trips, and the error-code vocabulary clients
 * branch on.  Every frame the daemon emits must re-parse — the
 * no-torn-frames guarantee starts with well-formed rendering.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/json.hh"
#include "service/protocol.hh"

namespace gpuscale {
namespace service {
namespace {

Request
mustParse(const std::string &line)
{
    Request req;
    std::string error;
    EXPECT_TRUE(parseRequest(line, &req, &error)) << error;
    return req;
}

std::string
rejectReason(const std::string &line)
{
    Request req;
    std::string error;
    EXPECT_FALSE(parseRequest(line, &req, &error)) << line;
    return error;
}

TEST(Protocol, ParsesFullRequest)
{
    const Request req = mustParse(
        "{\"id\":7,\"op\":\"classify\",\"client\":\"bench\","
        "\"deadline_ms\":1500,"
        "\"params\":{\"kernel\":\"rodinia/hotspot/calculate_temp\"}}");
    EXPECT_EQ(req.id, 7u);
    EXPECT_EQ(req.op, "classify");
    EXPECT_EQ(req.client, "bench");
    EXPECT_DOUBLE_EQ(req.deadline_ms, 1500.0);
    const auto *kernel = req.params.find("kernel");
    ASSERT_NE(kernel, nullptr);
    EXPECT_EQ(kernel->str, "rodinia/hotspot/calculate_temp");
}

TEST(Protocol, OptionalFieldsDefault)
{
    const Request req = mustParse("{\"op\":\"health\"}");
    EXPECT_EQ(req.id, 0u);
    EXPECT_TRUE(req.client.empty());
    EXPECT_DOUBLE_EQ(req.deadline_ms, 0.0);
    EXPECT_TRUE(req.params.isNull());
}

TEST(Protocol, NumberCapsAreInclusive)
{
    const Request req = mustParse(
        "{\"id\":9007199254740992,\"op\":\"health\","
        "\"deadline_ms\":86400000}");
    EXPECT_EQ(req.id, 9007199254740992u);
    EXPECT_DOUBLE_EQ(req.deadline_ms, kMaxDeadlineMs);
}

TEST(Protocol, RejectsMalformedFrames)
{
    EXPECT_NE(rejectReason("not json at all").find("malformed"),
              std::string::npos);
    EXPECT_NE(rejectReason("[1,2,3]").find("object"),
              std::string::npos);
    EXPECT_NE(rejectReason("{\"id\":1}").find("op"),
              std::string::npos);
    EXPECT_NE(rejectReason("{\"op\":\"\"}").find("op"),
              std::string::npos);
    EXPECT_NE(rejectReason("{\"op\":\"x\",\"id\":-1}").find("id"),
              std::string::npos);
    EXPECT_NE(rejectReason("{\"op\":\"x\",\"deadline_ms\":-5}")
                  .find("deadline_ms"),
              std::string::npos);
    // Numbers no cast may take: an id past 2^53 (and past uint64_t)
    // and a deadline past one day (and past the clock's ticks).
    EXPECT_NE(rejectReason("{\"id\":1e300,\"op\":\"health\"}").find("id"),
              std::string::npos);
    EXPECT_NE(rejectReason("{\"id\":9007199254740994,\"op\":\"x\"}")
                  .find("id"),
              std::string::npos);
    EXPECT_NE(rejectReason("{\"op\":\"health\",\"deadline_ms\":1e300}")
                  .find("deadline_ms"),
              std::string::npos);
    EXPECT_NE(rejectReason("{\"op\":\"x\",\"deadline_ms\":86400001}")
                  .find("deadline_ms"),
              std::string::npos);
    EXPECT_NE(rejectReason("{\"op\":\"x\",\"params\":3}")
                  .find("params"),
              std::string::npos);
    EXPECT_NE(rejectReason("{\"op\":\"x\",\"client\":9}")
                  .find("client"),
              std::string::npos);
    // Nesting past the parser's depth cap, not a stack overflow.
    EXPECT_NE(rejectReason(std::string(100000, '[')).find("nesting"),
              std::string::npos);
}

TEST(Protocol, ResultFrameRoundTrips)
{
    const std::string frame =
        renderResult(11, [](obs::JsonWriter &w) {
            w.beginObject();
            w.key("answer").value(static_cast<uint64_t>(42));
            w.endObject();
        });
    ASSERT_FALSE(frame.empty());
    EXPECT_EQ(frame.back(), '\n');
    // One frame, one line.
    EXPECT_EQ(frame.find('\n'), frame.size() - 1);

    const obs::JsonValue doc = obs::parseJson(frame);
    EXPECT_DOUBLE_EQ(doc.at("id").number, 11.0);
    EXPECT_TRUE(doc.at("ok").boolean);
    EXPECT_DOUBLE_EQ(doc.at("result").at("answer").number, 42.0);
}

TEST(Protocol, RawResultSplicesVerbatim)
{
    const std::string frame =
        renderRawResult(3, "{\"metrics\":{\"x\":1}}");
    const obs::JsonValue doc = obs::parseJson(frame);
    EXPECT_TRUE(doc.at("ok").boolean);
    EXPECT_DOUBLE_EQ(doc.at("result").at("metrics").at("x").number,
                     1.0);
}

TEST(Protocol, ErrorFrameCarriesTypedCodeAndRetryHint)
{
    const std::string frame = renderError(
        9, ErrorCode::RetryAfter, "shed by admission control", 25.0);
    const obs::JsonValue doc = obs::parseJson(frame);
    EXPECT_FALSE(doc.at("ok").boolean);
    EXPECT_EQ(doc.at("error").at("code").str, "RETRY_AFTER");
    EXPECT_EQ(doc.at("error").at("message").str,
              "shed by admission control");
    EXPECT_DOUBLE_EQ(doc.at("error").at("retry_after_ms").number,
                     25.0);

    // No hint member unless the server set one.
    const std::string plain =
        renderError(9, ErrorCode::NotFound, "unknown kernel");
    EXPECT_EQ(obs::parseJson(plain).at("error").find(
                  "retry_after_ms"),
              nullptr);
}

TEST(Protocol, ErrorCodeNamesAreStableWireContract)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::BadRequest), "BAD_REQUEST");
    EXPECT_STREQ(errorCodeName(ErrorCode::NotFound), "NOT_FOUND");
    EXPECT_STREQ(errorCodeName(ErrorCode::RetryAfter), "RETRY_AFTER");
    EXPECT_STREQ(errorCodeName(ErrorCode::DeadlineExceeded),
                 "DEADLINE_EXCEEDED");
    EXPECT_STREQ(errorCodeName(ErrorCode::ShuttingDown),
                 "SHUTTING_DOWN");
    EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "INTERNAL");
}

} // namespace
} // namespace service
} // namespace gpuscale
