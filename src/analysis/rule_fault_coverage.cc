/**
 * @file
 * fault-coverage rule: the fault-injection harness (base/fault) and
 * the retry envelope (obs/retry) only prove resilience for I/O that
 * actually passes through them.  A raw fopen() or rename() added in
 * a hurry is invisible to `gpuscale-census --fault-profile` runs and
 * becomes the one code path that never survived a crash test.
 *
 * The rule walks every token stream for raw I/O operations — stdio
 * opens, fstream opens, rename/remove/unlink, POSIX ::write/::read,
 * socket-plane calls (socket/bind/listen/accept/connect and the
 * send/recv family, which back the gpuscaled service protocol), and
 * std::filesystem mutators — and requires each to appear inside
 * a function whose body (including nested lambdas) calls
 * faultPoint() or retryWithBackoff().  base/fault and obs/retry
 * themselves are exempt: they are the envelope.  Deliberate
 * exceptions (pure readers, best-effort telemetry) carry
 * `allow(fault-coverage)` with a reason.
 */

#include <set>
#include <string>

#include "analysis/rules.hh"
#include "base/logging.hh"

namespace gpuscale {
namespace analysis {

namespace {

bool
isEnvelopeFile(const std::string &path)
{
    return path == "src/base/fault.cc" || path == "src/base/fault.hh" ||
           path == "src/obs/retry.cc" || path == "src/obs/retry.hh";
}

/** Operation names that open, mutate, or destroy files when called. */
const std::set<std::string> &
ioCallNames()
{
    static const std::set<std::string> names = {
        "fopen", "freopen",
        "rename", "remove", "unlink",
        "create_directory", "create_directories", "remove_all",
        "resize_file", "copy_file",
        // Service plane: socket setup and per-connection I/O must sit
        // inside the fault/retry envelope so crash tests can reach
        // the accept/read/write/admit paths (docs/service.md).
        "socket", "bind", "listen", "accept", "connect",
        "recv", "send", "recvfrom", "sendto",
    };
    return names;
}

class FaultCoverageRule : public Rule
{
  public:
    std::string name() const override { return "fault-coverage"; }

    std::string
    description() const override
    {
        return "raw I/O outside base/fault and obs/retry must sit in "
               "a scope that calls faultPoint() or retryWithBackoff()";
    }

    void
    run(const SourceRepo &repo, Report &report) const override
    {
        for (const auto &file : repo.files) {
            if (!file.isCpp() || isEnvelopeFile(file.path()))
                continue;
            checkFile(file, report);
        }
    }

  private:
    void
    checkFile(const SourceFile &file, Report &report) const
    {
        const auto &ts = file.tokens();
        const auto &toks = ts.tokens();
        for (size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != TokKind::Identifier)
                continue;

            std::string what;
            if (ioCallNames().count(t.text) &&
                isFreeCall(toks, i)) {
                what = t.text + "()";
            } else if ((t.text == "ofstream" || t.text == "fstream" ||
                        t.text == "ifstream") &&
                       streamOpensInline(ts, i)) {
                what = "std::" + t.text + " open";
            } else if (t.text == "open" && isMemberCall(toks, i)) {
                what = ".open()";
            } else if ((t.text == "write" || t.text == "read") &&
                       isGlobalQualifiedCall(toks, i)) {
                what = "::" + t.text + "()";
            }
            if (what.empty())
                continue;

            if (scopeIsCovered(file, t.offset))
                continue;
            emit(file, t.line,
                 strprintf("raw %s is outside the fault/retry "
                           "envelope; crash tests cannot reach it",
                           what.c_str()),
                 report,
                 "wrap the operation in retryWithBackoff() or add a "
                 "faultPoint(\"<site>\") probe to the enclosing "
                 "function; a deliberate exception needs "
                 "allow(fault-coverage) with a reason");
        }
    }

    /** identifier followed by '(' and not preceded by . or ->. */
    bool
    isFreeCall(const std::vector<Token> &toks, size_t i) const
    {
        if (i + 1 >= toks.size() || toks[i + 1].text != "(")
            return false;
        if (i >= 1 &&
            (toks[i - 1].text == "." || toks[i - 1].text == "->"))
            return false;
        // `Client::connect(` is a member definition or a class-scoped
        // wrapper call, never the raw free function — but std:: /
        // filesystem:: / fs:: qualifiers still name the real library
        // (std::rename, fs::remove_all).
        if (i >= 2 && toks[i - 1].text == "::" &&
            toks[i - 2].kind == TokKind::Identifier &&
            toks[i - 2].text != "std" && toks[i - 2].text != "fs" &&
            toks[i - 2].text != "filesystem")
            return false;
        return true;
    }

    bool
    isMemberCall(const std::vector<Token> &toks, size_t i) const
    {
        return i >= 1 && i + 1 < toks.size() &&
               toks[i + 1].text == "(" &&
               (toks[i - 1].text == "." || toks[i - 1].text == "->");
    }

    /** `::write(...)` with nothing (or a non-identifier) before the
     *  `::` — i.e. a global-namespace POSIX call, not obs::write. */
    bool
    isGlobalQualifiedCall(const std::vector<Token> &toks,
                          size_t i) const
    {
        if (i < 1 || toks[i - 1].text != "::")
            return false;
        if (i + 1 >= toks.size() || toks[i + 1].text != "(")
            return false;
        return i < 2 || toks[i - 2].kind != TokKind::Identifier;
    }

    /**
     * True when an ofstream/ifstream/fstream token at index i opens a
     * file right at construction: `ofstream os(path)`, `ofstream
     * os{path}`, or a temporary `ofstream(path)`.  A bare declaration
     * (`std::ofstream out;`) defers to a later .open(), which the
     * member-call check catches instead.
     */
    bool
    streamOpensInline(const TokenStream &ts, size_t i) const
    {
        const auto &toks = ts.tokens();
        size_t j = i + 1;
        if (j < toks.size() && toks[j].kind == TokKind::Identifier)
            ++j; // declared variable name
        if (j >= toks.size())
            return false;
        if (toks[j].text != "(" && toks[j].text != "{")
            return false;
        const size_t close = ts.match(j);
        // Non-empty argument list => a path is being opened.
        return close != TokenStream::npos && close > j + 1;
    }

    /**
     * The outermost function enclosing `offset` (so a lambda inside
     * a covered function counts as covered) contains a faultPoint or
     * retryWithBackoff call.
     */
    bool
    scopeIsCovered(const SourceFile &file, size_t offset) const
    {
        const int fn = file.scopes().outermostFunction(offset);
        if (fn < 0)
            return false;
        const Scope &s = file.scopes().scopes()[fn];
        const auto &ts = file.tokens();
        const auto &toks = ts.tokens();
        for (size_t i = ts.indexAtOrAfter(s.open_offset);
             i < toks.size() && toks[i].offset < s.close_offset; ++i) {
            if (toks[i].kind == TokKind::Identifier &&
                (toks[i].text == "faultPoint" ||
                 toks[i].text == "retryWithBackoff"))
                return true;
        }
        return false;
    }
};

} // namespace

std::unique_ptr<Rule>
makeFaultCoverageRule()
{
    return std::make_unique<FaultCoverageRule>();
}

} // namespace analysis
} // namespace gpuscale
