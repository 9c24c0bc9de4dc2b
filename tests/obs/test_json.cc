/**
 * @file
 * Unit tests for the obs JSON writer and parser.
 */

#include "obs/json.hh"

#include <gtest/gtest.h>

#include <clocale>
#include <sstream>
#include <stdexcept>

namespace gpuscale {
namespace obs {
namespace {

TEST(JsonEscapeTest, EscapesSpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string("x\x01y", 3)), "x\\u0001y");
}

TEST(JsonWriterTest, WritesNestedDocument)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject()
        .key("n").value(3)
        .key("name").value("census")
        .key("ok").value(true)
        .key("none").valueNull()
        .key("xs").beginArray().value(1.5).value(2.5).endArray()
        .key("inner").beginObject().key("k").value(uint64_t{7})
        .endObject()
        .endObject();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(os.str(),
              "{\"n\":3,\"name\":\"census\",\"ok\":true,\"none\":null,"
              "\"xs\":[1.5,2.5],\"inner\":{\"k\":7}}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .endArray();
    EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonParserTest, RoundTripsWriterOutput)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject()
        .key("count").value(42)
        .key("ratio").value(0.25)
        .key("tag").value("a\"b\nc")
        .key("list").beginArray().value(1).value(2).value(3).endArray()
        .endObject();

    const JsonValue v = parseJson(os.str());
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.at("count").number, 42.0);
    EXPECT_DOUBLE_EQ(v.at("ratio").number, 0.25);
    EXPECT_EQ(v.at("tag").str, "a\"b\nc");
    ASSERT_EQ(v.at("list").array.size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("list").array[2].number, 3.0);
}

TEST(JsonParserTest, ParsesScalarsAndWhitespace)
{
    EXPECT_TRUE(parseJson("  null ").isNull());
    EXPECT_TRUE(parseJson("true").boolean);
    EXPECT_FALSE(parseJson("false").boolean);
    EXPECT_DOUBLE_EQ(parseJson("-1.5e3").number, -1500.0);
    EXPECT_EQ(parseJson("\"x\"").str, "x");
    EXPECT_TRUE(parseJson("{}").isObject());
    EXPECT_TRUE(parseJson("[]").isArray());
}

TEST(JsonParserTest, DecodesEscapes)
{
    EXPECT_EQ(parseJson("\"a\\n\\t\\\"\\\\b\"").str, "a\n\t\"\\b");
    EXPECT_EQ(parseJson("\"\\u0041\"").str, "A");
}

TEST(JsonParserTest, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson(""), std::runtime_error);
    EXPECT_THROW(parseJson("{"), std::runtime_error);
    EXPECT_THROW(parseJson("[1,]"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\" 1}"), std::runtime_error);
    EXPECT_THROW(parseJson("tru"), std::runtime_error);
    EXPECT_THROW(parseJson("{} trailing"), std::runtime_error);
    EXPECT_THROW(parseJson("\"unterminated"), std::runtime_error);
}

TEST(JsonParserTest, RejectsNestingPastTheDepthCap)
{
    // Recursion per level: this many would overflow the stack.
    EXPECT_THROW(parseJson(std::string(100000, '[')), std::runtime_error);
    EXPECT_THROW(parseJson(std::string(257, '[') + std::string(257, ']')),
                 std::runtime_error);
    const JsonValue deep =
        parseJson(std::string(256, '[') + std::string(256, ']'));
    EXPECT_TRUE(deep.isArray());
}

TEST(JsonLocaleTest, NumbersRoundTripUnderCommaDecimalLocale)
{
    // Under a comma-decimal LC_NUMERIC locale, printf-family "%g"
    // emits "0,25" (invalid JSON) and strtod rejects "0.25"; the
    // writer/parser must be locale-independent.
    const char *prev = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
    if (prev == nullptr)
        GTEST_SKIP() << "de_DE.UTF-8 locale not installed";

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject()
        .key("ratio").value(0.25)
        .key("big").value(1.5e6)
        .key("neg").value(-3.75)
        .endObject();
    const std::string doc = os.str();
    EXPECT_EQ(doc, "{\"ratio\":0.25,\"big\":1500000,\"neg\":-3.75}");

    const JsonValue v = parseJson(doc);
    EXPECT_DOUBLE_EQ(v.at("ratio").number, 0.25);
    EXPECT_DOUBLE_EQ(v.at("big").number, 1.5e6);
    EXPECT_DOUBLE_EQ(v.at("neg").number, -3.75);
    EXPECT_DOUBLE_EQ(parseJson("-1.5e3").number, -1500.0);

    std::setlocale(LC_NUMERIC, "C");
}

TEST(JsonValueTest, FindAndAt)
{
    const JsonValue v = parseJson("{\"a\": {\"b\": 2}}");
    EXPECT_NE(v.find("a"), nullptr);
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(v.at("a").at("b").number, 2.0);
    EXPECT_EQ(v.at("a").find("b")->find("c"), nullptr);
}

} // namespace
} // namespace obs
} // namespace gpuscale
