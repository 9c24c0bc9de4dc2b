/**
 * @file
 * Error-code rule: a default-constructed `std::error_code ec;` whose
 * value is never inspected turns every failure on that path into a
 * silent no-op.  The non-throwing std::filesystem overloads make this
 * easy to write by accident: the call "succeeds" and the error sits
 * unread in a local.  The repo convention is that such declarations
 * must either be checked (fatal_if(ec, ...), if (ec) ...) or carry an
 * explicit allow() with a reason for the fire-and-forget.
 *
 * This is a heuristic, not a dataflow analysis.  A declaration counts
 * as inspected if the name later appears (a) ahead of `.` (member
 * access like ec.message()), (b) behind `!` or beside ==/!=/<<,
 * (c) as the first argument of a conditional or assertion — if,
 * while, switch, assert, fatal_if, panic_if, or an EXPECT_/ASSERT_
 * test macro — or (d) in a return statement.  Any inspected use
 * anywhere later in the
 * file clears every earlier declaration of that name, so the rule errs
 * toward silence in files that reuse one name across scopes.
 */

#include <cctype>
#include <string>

#include "analysis/rules.hh"
#include "base/logging.hh"

namespace gpuscale {
namespace analysis {

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

size_t
skipWs(const std::string &s, size_t i)
{
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
    return i;
}

/** Index of the last non-whitespace character before i, or npos. */
size_t
prevNonWs(const std::string &s, size_t i)
{
    while (i > 0) {
        --i;
        if (!std::isspace(static_cast<unsigned char>(s[i])))
            return i;
    }
    return std::string::npos;
}

/** Identifier ending at s[end] (inclusive), walking back. */
std::string
identEndingAt(const std::string &s, size_t end)
{
    if (!identChar(s[end]))
        return "";
    size_t begin = end;
    while (begin > 0 && identChar(s[begin - 1]))
        --begin;
    return s.substr(begin, end - begin + 1);
}

/** True if the '(' at open belongs to a conditional or assertion. */
bool
inspectingCallee(const std::string &code, size_t open)
{
    const size_t end = prevNonWs(code, open);
    if (end == std::string::npos)
        return false;
    const std::string callee = identEndingAt(code, end);
    if (callee == "if" || callee == "while" || callee == "switch" ||
        callee == "assert" || callee == "fatal_if" ||
        callee == "panic_if")
        return true;
    return callee.rfind("EXPECT_", 0) == 0 ||
           callee.rfind("ASSERT_", 0) == 0;
}

/** True if the use of name at [pos, pos+len) reads its value. */
bool
inspectedUse(const std::string &code, size_t pos, size_t len)
{
    const size_t after = skipWs(code, pos + len);
    if (after < code.size()) {
        if (code[after] == '.')
            return true;
        if (code.compare(after, 2, "==") == 0 ||
            code.compare(after, 2, "!=") == 0)
            return true;
    }
    const size_t before = prevNonWs(code, pos);
    if (before == std::string::npos)
        return false;
    const char c = code[before];
    if (c == '!')
        return true;
    if (c == '=' && before > 0 &&
        (code[before - 1] == '=' || code[before - 1] == '!'))
        return true;
    if (c == '<' && before > 0 && code[before - 1] == '<')
        return true;
    if (c == '(')
        return inspectingCallee(code, before);
    return identEndingAt(code, before) == "return";
}

class ErrorCodeRule : public Rule
{
  public:
    std::string name() const override { return "error-code"; }

    std::string
    description() const override
    {
        return "a declared std::error_code must be inspected, not "
               "silently dropped";
    }

    void
    run(const SourceRepo &repo, Report &report) const override
    {
        static const std::string kType = "std::error_code";
        for (const auto &file : repo.files) {
            if (!file.isCpp())
                continue;
            const std::string &code = file.code();
            for (size_t off : findTokens(file, kType)) {
                // Match a bare declaration `std::error_code NAME ;`
                // (references, parameters, and initialized copies
                // are someone else's value and not this rule's
                // business).
                size_t j = off + kType.size();
                if (j >= code.size() ||
                    !std::isspace(static_cast<unsigned char>(code[j])))
                    continue;
                j = skipWs(code, j);
                const size_t name_begin = j;
                while (j < code.size() && identChar(code[j]))
                    ++j;
                if (j == name_begin)
                    continue;
                const std::string var =
                    code.substr(name_begin, j - name_begin);
                const size_t semi = skipWs(code, j);
                if (semi >= code.size() || code[semi] != ';')
                    continue;

                if (!everInspected(code, var, semi))
                    emit(file, file.lineOf(off),
                         strprintf(
                             "std::error_code '%s' is declared but "
                             "never inspected; a swallowed error is a "
                             "silent failure -- check it "
                             "(fatal_if(%s, ...)) or allow() the "
                             "fire-and-forget with a reason",
                             var.c_str(), var.c_str()),
                         report);
            }
        }
    }

  private:
    /** Any value-reading use of var after the declaration's ';'. */
    bool
    everInspected(const std::string &code, const std::string &var,
                  size_t from) const
    {
        size_t pos = from;
        while ((pos = code.find(var, pos + 1)) != std::string::npos) {
            const bool boundary =
                !identChar(code[pos - 1]) &&
                (pos + var.size() >= code.size() ||
                 !identChar(code[pos + var.size()]));
            if (boundary && inspectedUse(code, pos, var.size()))
                return true;
        }
        return false;
    }
};

} // namespace

std::unique_ptr<Rule>
makeErrorCodeRule()
{
    return std::make_unique<ErrorCodeRule>();
}

} // namespace analysis
} // namespace gpuscale
