#include "rules.hh"

#include <cctype>

namespace gpuscale {
namespace analysis {

namespace {

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isKeySegment(const std::string &s, size_t begin, size_t end,
             bool allow_empty)
{
    if (begin == end)
        return allow_empty;
    for (size_t i = begin; i < end; ++i) {
        const char c = s[i];
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

void
Rule::emit(const SourceFile &file, int line, std::string message,
           Report &report, std::string hint) const
{
    if (file.suppressed(line, name())) {
        report.noteSuppressed();
        return;
    }
    report.add(Finding{name(), file.path(), line, std::move(message),
                       std::move(hint)});
}

std::vector<std::unique_ptr<Rule>>
allRules()
{
    std::vector<std::unique_ptr<Rule>> rules;
    rules.push_back(makeLayeringRule());
    rules.push_back(makeConcurrencyRule());
    rules.push_back(makeLocaleRule());
    rules.push_back(makeNamingRule());
    rules.push_back(makeErrorCodeRule());
    rules.push_back(makeDescriptionRule());
    rules.push_back(makeFpDeterminismRule());
    rules.push_back(makeFaultCoverageRule());
    rules.push_back(makeLockDisciplineRule());
    return rules;
}

std::vector<size_t>
findTokens(const SourceFile &file, const std::string &token)
{
    std::vector<size_t> hits;
    const std::string &code = file.code();
    size_t pos = 0;
    while ((pos = code.find(token, pos)) != std::string::npos) {
        const bool boundary =
            pos == 0 || !isIdentChar(code[pos - 1]);
        if (boundary)
            hits.push_back(pos);
        pos += 1;
    }
    return hits;
}

bool
isLowercaseDottedKey(const std::string &s)
{
    if (s.empty() || !(s[0] >= 'a' && s[0] <= 'z'))
        return false;
    size_t begin = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == '.') {
            if (!isKeySegment(s, begin, i, false))
                return false;
            begin = i + 1;
        }
    }
    return true;
}

bool
isLowercaseSpanName(const std::string &s)
{
    if (s.empty() || !(s[0] >= 'a' && s[0] <= 'z'))
        return false;
    size_t begin = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == '.' || s[i] == '/') {
            // Only the final segment may be empty (a runtime-
            // completed prefix like "sweep/").
            if (!isKeySegment(s, begin, i, i == s.size()))
                return false;
            begin = i + 1;
        }
    }
    return true;
}

} // namespace analysis
} // namespace gpuscale
