/**
 * @file
 * Unit tests for string helpers.
 */

#include "base/string_util.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>

namespace gpuscale {
namespace {

TEST(SplitTest, BasicAndEmptyFields)
{
    EXPECT_EQ(split("a,b,c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("a,,c", ','),
              (std::vector<std::string>{"a", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(split("x,", ','), (std::vector<std::string>{"x", ""}));
}

TEST(TrimTest, Whitespace)
{
    EXPECT_EQ(trim("  hi  "), "hi");
    EXPECT_EQ(trim("\t\nhi"), "hi");
    EXPECT_EQ(trim("hi"), "hi");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(JoinTest, Basic)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({"solo"}, ","), "solo");
    EXPECT_EQ(join({}, ","), "");
}

TEST(PadTest, LeftAndRight)
{
    EXPECT_EQ(padLeft("ab", 5), "   ab");
    EXPECT_EQ(padRight("ab", 5), "ab   ");
    EXPECT_EQ(padLeft("abcdef", 3), "abcdef"); // never truncates
}

TEST(FormatDoubleTest, Decimals)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
    EXPECT_EQ(formatDouble(-1.5, 1), "-1.5");
}

TEST(FormatSiTest, Scales)
{
    EXPECT_EQ(formatSi(1234.0, 2), "1.23k");
    EXPECT_EQ(formatSi(2.5e6, 1), "2.5M");
    EXPECT_EQ(formatSi(7.0e9, 0), "7G");
    EXPECT_EQ(formatSi(3.2e12, 1), "3.2T");
    EXPECT_EQ(formatSi(12.0, 1), "12.0");
    EXPECT_EQ(formatSi(-4.0e6, 1), "-4.0M");
}

TEST(StartsWithTest, Basic)
{
    EXPECT_TRUE(startsWith("rodinia/bfs", "rodinia"));
    EXPECT_FALSE(startsWith("rod", "rodinia"));
    EXPECT_TRUE(startsWith("x", ""));
}

TEST(ToLowerTest, Ascii)
{
    EXPECT_EQ(toLower("MiXeD 123"), "mixed 123");
}

TEST(ParseMillisecondsTest, AcceptsZeroThroughOneDayOnly)
{
    EXPECT_EQ(parseMilliseconds("0"), 0.0);
    EXPECT_EQ(parseMilliseconds(" 86400000 "), kMaxDurationMs);
    for (const char *bad : {"86400001", "-1", "1e300", "inf", "nan", "x"})
        EXPECT_FALSE(parseMilliseconds(bad).has_value()) << bad;
}

TEST(ParseIntegerTest, ThirtyTwoBitMaxParsesAndMaxPlusOneDoesNot)
{
    EXPECT_EQ(parseInteger<unsigned>("4294967295"),
              std::optional<unsigned>(4294967295u));
    EXPECT_EQ(parseInteger<unsigned>("4294967296"), std::nullopt);
    EXPECT_EQ(parseInteger<int>("2147483647"),
              std::optional<int>(2147483647));
    EXPECT_EQ(parseInteger<int>("2147483648"), std::nullopt);
    EXPECT_EQ(parseInteger<int>("-2147483648"),
              std::optional<int>(std::numeric_limits<int>::min()));
    EXPECT_EQ(parseInteger<int>("-2147483649"), std::nullopt);
}

/**
 * A 64-bit max() is not a double: the text rounds to 2^64 (max + 1)
 * and is rejected, while the largest double below 2^64 parses
 * exactly.
 */
template <typename T>
void
expectSixtyFourBitBounds()
{
    static_assert(sizeof(T) == 8, "64-bit types only");
    EXPECT_EQ(parseInteger<T>("18446744073709549568"),
              std::optional<T>(18446744073709549568ull));
    EXPECT_EQ(parseInteger<T>("18446744073709551615"), std::nullopt);
    EXPECT_EQ(parseInteger<T>("18446744073709551616"), std::nullopt);
}

TEST(ParseIntegerTest, SixtyFourBitBoundsRoundThroughDouble)
{
    expectSixtyFourBitBounds<uint64_t>();
    expectSixtyFourBitBounds<size_t>();
}

/** Inputs no target type may accept, whatever its width. */
template <typename T>
void
expectRejectsJunk()
{
    EXPECT_EQ(parseInteger<T>("1e300"), std::nullopt);
    EXPECT_EQ(parseInteger<T>("-1e300"), std::nullopt);
    EXPECT_EQ(parseInteger<T>("1.5"), std::nullopt);
    EXPECT_EQ(parseInteger<T>("inf"), std::nullopt);
    EXPECT_EQ(parseInteger<T>("nan"), std::nullopt);
    EXPECT_EQ(parseInteger<T>("8x9"), std::nullopt);
    EXPECT_EQ(parseInteger<T>(""), std::nullopt);
    // parseDouble syntax, as every site accepted before.
    EXPECT_EQ(parseInteger<T>(" 1e3 "), std::optional<T>(1000));
}

TEST(ParseIntegerTest, RejectsOutOfRangeFractionsAndNonNumbers)
{
    expectRejectsJunk<unsigned>();
    expectRejectsJunk<int>();
    expectRejectsJunk<uint64_t>();
    expectRejectsJunk<size_t>();
    EXPECT_EQ(parseInteger<unsigned>("-1"), std::nullopt);
    EXPECT_EQ(parseInteger<uint64_t>("-1"), std::nullopt);
    EXPECT_EQ(parseInteger<size_t>("-1"), std::nullopt);
    EXPECT_EQ(parseInteger<int>("-1"), std::optional<int>(-1));
}

TEST(ParseIntegerTest, TruncateCutsFractionsButNotTheRange)
{
    EXPECT_EQ(parseInteger<unsigned>("1.5", /*truncate=*/true),
              std::optional<unsigned>(1u));
    EXPECT_EQ(parseInteger<unsigned>("4294967295.5", true),
              std::optional<unsigned>(4294967295u));
    EXPECT_EQ(parseInteger<unsigned>("4294967296", true), std::nullopt);
    EXPECT_EQ(parseInteger<unsigned>("1e20", true), std::nullopt);
    EXPECT_EQ(parseInteger<unsigned>("-1", true), std::nullopt);
    EXPECT_EQ(parseInteger<unsigned>("nan", true), std::nullopt);
}

} // namespace
} // namespace gpuscale
