/**
 * @file
 * String helpers shared by the CSV, table, and report modules.
 */

#ifndef GPUSCALE_BASE_STRING_UTIL_HH
#define GPUSCALE_BASE_STRING_UTIL_HH

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gpuscale {

/** Split on a single-character delimiter; keeps empty fields. */
std::vector<std::string> split(std::string_view s, char delim);

/** Strip leading/trailing ASCII whitespace. */
std::string_view trim(std::string_view s);

/** Join pieces with a separator. */
std::string join(const std::vector<std::string> &pieces,
                 std::string_view sep);

/** Left-pad with spaces to at least width characters. */
std::string padLeft(std::string_view s, size_t width);

/** Right-pad with spaces to at least width characters. */
std::string padRight(std::string_view s, size_t width);

/** Fixed-notation double with the given number of decimals. */
std::string formatDouble(double v, int decimals = 3);

/**
 * Human-friendly SI rendering: 1234567 -> "1.23M".  Used in tables
 * where raw magnitudes would be unreadable.
 */
std::string formatSi(double v, int decimals = 2);

/**
 * Locale-independent shortest round-trip rendering of a double
 * (std::to_chars): "0.05" stays "0.05" in every locale, and parsing
 * the result with parseDouble() returns the exact same value.  Use
 * this — never %g/%e — for anything serialized (CSV, JSON,
 * manifests).
 */
std::string formatDoubleShortest(double v);

/**
 * Locale-independent %.*g equivalent (std::to_chars, general
 * format): at most sig_digits significant digits.  For human-facing
 * tables and charts where shortest-round-trip is too noisy.
 */
std::string formatDoubleGeneral(double v, int sig_digits);

/**
 * Locale-independent double parse (std::from_chars).  Leading and
 * trailing ASCII whitespace is tolerated; anything else unconsumed
 * makes the parse fail.  Returns nullopt on failure.
 */
std::optional<double> parseDouble(std::string_view s);

/**
 * Parse a whole number of integer type T in parseDouble() syntax
 * ("64", "1e3", " 8 "), checking T's range *before* converting:
 * converting a double outside T's range is undefined behaviour, so
 * "x != static_cast<T>(x)" cannot be the check.  Returns nullopt for
 * a non-number, a value outside T's range, or — unless `truncate` —
 * a fraction; with `truncate` a fraction is cut toward zero, as a
 * plain cast would.
 *
 * The text is read as a double, so past 2^53 it rounds to the nearest
 * double before the range check: a 64-bit type's max() itself rounds
 * up to 2^64 and is rejected.
 */
template <typename T>
std::optional<T>
parseInteger(std::string_view s, bool truncate = false)
{
    static_assert(std::is_integral_v<T>, "parseInteger needs an integer");
    const std::optional<double> v = parseDouble(s);
    if (!v)
        return std::nullopt;
    const double whole = std::trunc(*v);
    if (whole != *v && !truncate)
        return std::nullopt;
    // max() + 1 is a power of two, so it is exact as a double even
    // where max() is not; lowest() is exact for every integer type.
    constexpr double lo =
        static_cast<double>(std::numeric_limits<T>::lowest());
    constexpr double end =
        2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    if (!(whole >= lo && whole < end)) // NaN fails both
        return std::nullopt;
    return static_cast<T>(whole);
}

/**
 * Longest span, in milliseconds, that a sleep, backoff or deadline
 * read from input may ask for: one day.  Within it every
 * millisecond-to-clock-tick conversion stays inside its integer
 * range; a longer value is malformed, not a wish to wait forever.
 */
constexpr double kMaxDurationMs = 24.0 * 60.0 * 60.0 * 1000.0;

/**
 * parseDouble() for a span of milliseconds: nullopt unless the value
 * lies in [0, kMaxDurationMs], so NaN and infinity fail too.
 */
std::optional<double> parseMilliseconds(std::string_view s);

/** True if s starts with the given prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view s);

} // namespace gpuscale

#endif // GPUSCALE_BASE_STRING_UTIL_HH
