/**
 * @file
 * String helper implementations.
 */

#include "string_util.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "logging.hh"

namespace gpuscale {

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        const size_t pos = s.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(start));
            break;
        }
        out.emplace_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::string_view
trim(std::string_view s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
join(const std::vector<std::string> &pieces, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < pieces.size(); ++i) {
        if (i)
            out += sep;
        out += pieces[i];
    }
    return out;
}

std::string
padLeft(std::string_view s, size_t width)
{
    std::string out(s);
    if (out.size() < width)
        out.insert(0, width - out.size(), ' ');
    return out;
}

std::string
padRight(std::string_view s, size_t width)
{
    std::string out(s);
    if (out.size() < width)
        out.append(width - out.size(), ' ');
    return out;
}

std::string
formatDouble(double v, int decimals)
{
    return strprintf("%.*f", decimals, v);
}

std::string
formatSi(double v, int decimals)
{
    static const struct { double scale; const char *suffix; } kUnits[] = {
        { 1e12, "T" }, { 1e9, "G" }, { 1e6, "M" }, { 1e3, "k" },
    };
    const double mag = std::abs(v);
    for (const auto &unit : kUnits) {
        if (mag >= unit.scale) {
            return strprintf("%.*f%s", decimals, v / unit.scale,
                             unit.suffix);
        }
    }
    return strprintf("%.*f", decimals, v);
}

namespace {

/** Shared to_chars driver; fmt/precision as in std::to_chars. */
template <typename... Spec>
std::string
toCharsString(double v, Spec... spec)
{
    // Worst case for shortest round-trip is well under 32 chars;
    // general format with clamped precision fits too.
    char buf[64];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), v, spec...);
    panic_if(res.ec != std::errc(),
             "to_chars failed for a finite-sized buffer");
    return std::string(buf, res.ptr);
}

} // namespace

std::string
formatDoubleShortest(double v)
{
    return toCharsString(v);
}

std::string
formatDoubleGeneral(double v, int sig_digits)
{
    panic_if(sig_digits < 1 || sig_digits > 17,
             "formatDoubleGeneral: %d significant digits out of "
             "[1, 17]",
             sig_digits);
    return toCharsString(v, std::chars_format::general, sig_digits);
}

std::optional<double>
parseDouble(std::string_view s)
{
    const std::string_view t = trim(s);
    if (t.empty())
        return std::nullopt;
    double v = 0.0;
    const auto res =
        std::from_chars(t.data(), t.data() + t.size(), v);
    if (res.ec != std::errc() || res.ptr != t.data() + t.size())
        return std::nullopt;
    return v;
}

std::optional<double>
parseMilliseconds(std::string_view s)
{
    const std::optional<double> ms = parseDouble(s);
    if (!ms || !(*ms >= 0.0 && *ms <= kMaxDurationMs))
        return std::nullopt;
    return ms;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

} // namespace gpuscale
