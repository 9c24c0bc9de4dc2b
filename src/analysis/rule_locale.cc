/**
 * @file
 * Locale-safety rule: serialized numbers must round-trip through
 * std::to_chars / std::from_chars, which are locale-independent by
 * construction.  Two locale-dependent habits are findings:
 *
 *  - C parsing: atof/strtod/strtof/strtold/std::stod/std::stof and
 *    the scanf family read "1,5" instead of "1.5" under e.g. de_DE
 *    and silently truncate.
 *  - %g/%e/%a conversions handed to the string-producing formatters
 *    (strprintf/snprintf/sprintf): those strings feed CSV, JSON, and
 *    manifest files.  Fixed %f in human-facing tables is tolerated —
 *    tables are read, not parsed.
 *
 * base/logging hosts the formatting engine itself and is exempt.
 */

#include <cctype>
#include <string>
#include <vector>

#include "analysis/rules.hh"
#include "base/logging.hh"

namespace gpuscale {
namespace analysis {

namespace {

bool
isFormattingHost(const std::string &path)
{
    return path == "src/base/logging.cc" ||
           path == "src/base/logging.hh";
}

/** True if fmt contains a %g/%e/%a-family conversion. */
bool
hasFloatSerializationConversion(const std::string &fmt)
{
    for (size_t i = 0; i + 1 < fmt.size(); ++i) {
        if (fmt[i] != '%')
            continue;
        size_t j = i + 1;
        if (fmt[j] == '%') {
            i = j;
            continue;
        }
        // Skip flags, width, precision, and length modifiers.
        while (j < fmt.size() &&
               (std::isdigit(static_cast<unsigned char>(fmt[j])) ||
                fmt[j] == '.' || fmt[j] == '*' || fmt[j] == '-' ||
                fmt[j] == '+' || fmt[j] == ' ' || fmt[j] == '#' ||
                fmt[j] == 'l' || fmt[j] == 'L' || fmt[j] == 'h'))
            ++j;
        if (j < fmt.size() &&
            (fmt[j] == 'g' || fmt[j] == 'G' || fmt[j] == 'e' ||
             fmt[j] == 'E' || fmt[j] == 'a' || fmt[j] == 'A'))
            return true;
    }
    return false;
}

class LocaleRule : public Rule
{
  public:
    std::string name() const override { return "locale"; }

    std::string
    description() const override
    {
        return "serialized numbers use to_chars/from_chars, not "
               "atof/strtod or %g-family formatting";
    }

    void
    run(const SourceRepo &repo, Report &report) const override
    {
        for (const auto &file : repo.files) {
            if (!file.isCpp() || isFormattingHost(file.path()))
                continue;
            checkParsers(file, report);
            checkFormatters(file, report);
        }
    }

  private:
    void
    checkParsers(const SourceFile &file, Report &report) const
    {
        static const std::vector<std::string> kParsers = {
            "atof",  "strtod", "strtof", "strtold", "stod",
            "stof",  "sscanf", "fscanf", "vsscanf", "setlocale",
        };
        for (const auto &fn : kParsers) {
            for (size_t off : findTokens(file, fn)) {
                const size_t after = off + fn.size();
                if (after >= file.code().size() ||
                    file.code()[after] != '(')
                    continue;
                emit(file, file.lineOf(off),
                     strprintf("%s() parses numbers under the global "
                               "C locale; use std::from_chars (see "
                               "parseDouble in base/string_util.hh)",
                               fn.c_str()),
                     report);
            }
        }
    }

    void
    checkFormatters(const SourceFile &file, Report &report) const
    {
        static const std::vector<std::string> kFormatters = {
            "strprintf", "snprintf", "sprintf", "vsnprintf",
        };
        for (const auto &fn : kFormatters) {
            for (size_t off : findTokens(file, fn)) {
                const size_t after = off + fn.size();
                if (after >= file.code().size() ||
                    file.code()[after] != '(')
                    continue;
                const StringLiteral *fmt =
                    file.literalAtOrAfter(off);
                if (!fmt)
                    continue;
                // The format string must belong to this call: no
                // statement boundary between the call and it.
                const auto semi =
                    file.code().find(';', off);
                if (semi != std::string::npos && semi < fmt->offset)
                    continue;
                if (!hasFloatSerializationConversion(fmt->text))
                    continue;
                emit(file, file.lineOf(off),
                     strprintf("%s() with a %%g/%%e-family "
                               "conversion is locale-dependent; use "
                               "std::to_chars (see "
                               "formatDoubleShortest in "
                               "base/string_util.hh)",
                               fn.c_str()),
                     report);
            }
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeLocaleRule()
{
    return std::make_unique<LocaleRule>();
}

} // namespace analysis
} // namespace gpuscale
