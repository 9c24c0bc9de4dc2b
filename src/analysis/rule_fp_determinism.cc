/**
 * @file
 * fp-determinism rule: the census's headline contract is that the
 * scalar, batched, and runtimes paths are *bitwise* identical
 * (docs/performance.md), which only holds while every path performs
 * the same floating-point operations in the same order.  This rule
 * keeps the three classic order-breakers out of the tree:
 *
 *  1. `std::accumulate` / `std::reduce` over floating values — the
 *     reduction order is an implementation detail (and for reduce,
 *     deliberately unspecified), so two call sites can disagree in
 *     the last ulp.  Explicitly-ordered loops or the blessed helpers
 *     in base/math_util are the sanctioned forms.
 *  2. Range-for over an unordered container feeding arithmetic
 *     (`+=`, `<<`, serialization calls) — iteration order depends on
 *     the hash seed and load factor, so the sum (or the output file)
 *     differs between runs and standard libraries.
 *  3. Fast-math compiler flags (-ffast-math, -Ofast, /fp:fast,
 *     -funsafe-math-optimizations, -ffp-contract=fast) anywhere in
 *     the CMake lists — these license the compiler to reassociate
 *     globally, which silently breaks the differential tests.
 *
 * It also enforces the shared-helper contract between the scalar and
 * batched census paths: any function referenced from both
 * src/gpu/analytic_model.cc and src/gpu/analytic_batch.cc must be
 * defined once, in a shared header — two private copies of one
 * arithmetic helper is exactly how the bitwise contract rots.
 */

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/rules.hh"
#include "base/logging.hh"

namespace gpuscale {
namespace analysis {

namespace {

/** Files where ordered reductions legitimately live. */
bool
isBlessedHelperFile(const std::string &path)
{
    return path == "src/base/math_util.cc" ||
           path == "src/base/math_util.hh" ||
           path == "src/gpu/analytic_batch.hh" ||
           path == "src/gpu/config_grid.hh";
}

const char *const kScalarTu = "src/gpu/analytic_model.cc";
const char *const kBatchTu = "src/gpu/analytic_batch.cc";

bool
isKeyword(const std::string &s)
{
    static const std::set<std::string> kw = {
        "if",      "while",  "for",      "switch", "return",
        "sizeof",  "catch",  "throw",    "new",    "delete",
        "static",  "const",  "constexpr", "auto",  "case",
        "default", "else",   "do",       "break",  "continue",
        "typeid",  "alignof", "noexcept", "assert", "decltype",
    };
    return kw.count(s) != 0;
}

/** Token text that looks like a floating-point literal. */
bool
isFloatLiteral(const Token &t)
{
    if (t.kind != TokKind::Number)
        return false;
    if (t.text.rfind("0x", 0) == 0 || t.text.rfind("0X", 0) == 0)
        return t.text.find('p') != std::string::npos ||
               t.text.find('P') != std::string::npos;
    return t.text.find('.') != std::string::npos ||
           t.text.find('e') != std::string::npos ||
           t.text.find('E') != std::string::npos ||
           t.text.back() == 'f' || t.text.back() == 'F';
}

class FpDeterminismRule : public Rule
{
  public:
    std::string name() const override { return "fp-determinism"; }

    std::string
    description() const override
    {
        return "no reassociation-prone float patterns: unordered "
               "reductions, unordered-container arithmetic, "
               "fast-math flags, or duplicated census helpers";
    }

    void
    run(const SourceRepo &repo, Report &report) const override
    {
        for (const auto &file : repo.files) {
            if (!file.isCpp()) {
                checkCMakeFlags(file, report);
                continue;
            }
            if (!isBlessedHelperFile(file.path())) {
                checkReductions(file, report);
                checkUnorderedIteration(file, report);
            }
        }
        checkSharedHelpers(repo, report);
    }

  private:
    void
    checkCMakeFlags(const SourceFile &file, Report &report) const
    {
        static const char *const kFlags[] = {
            "-ffast-math",
            "-Ofast",
            "fp:fast",
            "-funsafe-math-optimizations",
            "-ffp-contract=fast",
        };
        const std::string &code = file.code();
        for (const char *flag : kFlags) {
            size_t pos = 0;
            while ((pos = code.find(flag, pos)) != std::string::npos) {
                emit(file, file.lineOf(pos),
                     strprintf("fast-math flag '%s' licenses global "
                               "reassociation and breaks the bitwise "
                               "scalar/batched census contract",
                               flag),
                     report,
                     "build with plain -O3; the SoA layout, not "
                     "fast-math, is where the census speed comes "
                     "from (docs/performance.md)");
                pos += 1;
            }
        }
    }

    void
    checkReductions(const SourceFile &file, Report &report) const
    {
        const auto &toks = file.tokens().tokens();
        for (size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].kind != TokKind::Identifier ||
                (toks[i].text != "accumulate" &&
                 toks[i].text != "reduce"))
                continue;
            if (i + 1 >= toks.size() || toks[i + 1].text != "(")
                continue;
            // Member calls (x.reduce()) are someone else's API.
            if (i >= 1 &&
                (toks[i - 1].text == "." || toks[i - 1].text == "->"))
                continue;
            const size_t close = file.tokens().match(i + 1);
            if (close == TokenStream::npos)
                continue;
            bool floating = false;
            for (size_t j = i + 2; j < close; ++j) {
                if (isFloatLiteral(toks[j]) ||
                    (toks[j].kind == TokKind::Identifier &&
                     (toks[j].text == "double" ||
                      toks[j].text == "float")))
                    floating = true;
            }
            if (!floating)
                continue;
            emit(file, toks[i].line,
                 strprintf("std::%s over floating values has an "
                           "unspecified reduction order; results can "
                           "differ in the last ulp between call "
                           "sites",
                           toks[i].text.c_str()),
                 report,
                 "write an explicitly-ordered loop, or use the "
                 "blessed helpers in src/base/math_util.hh");
        }
    }

    void
    checkUnorderedIteration(const SourceFile &file,
                            Report &report) const
    {
        const auto &ts = file.tokens();
        const auto &toks = ts.tokens();

        // Names declared with an unordered container type anywhere
        // in this file (fields and locals alike).
        std::set<std::string> unordered;
        for (size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].kind != TokKind::Identifier)
                continue;
            const std::string &t = toks[i].text;
            if (t != "unordered_map" && t != "unordered_set" &&
                t != "unordered_multimap" &&
                t != "unordered_multiset")
                continue;
            if (i + 1 >= toks.size() || toks[i + 1].text != "<")
                continue;
            int depth = 0;
            size_t j = i + 1;
            for (; j < toks.size(); ++j) {
                if (toks[j].text == "<")
                    ++depth;
                else if (toks[j].text == ">")
                    --depth;
                else if (toks[j].text == ">>")
                    depth -= 2;
                if (depth <= 0)
                    break;
            }
            size_t k = j + 1;
            while (k < toks.size() &&
                   (toks[k].text == "&" || toks[k].text == "*" ||
                    toks[k].text == "&&" || toks[k].text == "const"))
                ++k;
            if (k < toks.size() &&
                toks[k].kind == TokKind::Identifier)
                unordered.insert(toks[k].text);
        }
        if (unordered.empty())
            return;

        for (size_t i = 0; i + 1 < toks.size(); ++i) {
            if (toks[i].kind != TokKind::Identifier ||
                toks[i].text != "for" || toks[i + 1].text != "(")
                continue;
            const size_t close = ts.match(i + 1);
            if (close == TokenStream::npos)
                continue;
            // Range-for: a ':' inside the parens, with the range
            // expression after it naming an unordered container.
            size_t colon = TokenStream::npos;
            for (size_t j = i + 2; j < close; ++j) {
                if (toks[j].kind == TokKind::Punct &&
                    toks[j].text == ":") {
                    colon = j;
                    break;
                }
            }
            if (colon == TokenStream::npos)
                continue;
            bool over_unordered = false;
            for (size_t j = colon + 1; j < close; ++j) {
                if (toks[j].kind == TokKind::Identifier &&
                    unordered.count(toks[j].text))
                    over_unordered = true;
            }
            if (!over_unordered)
                continue;

            // Body range: braces or the single statement.
            size_t body_begin = close + 1;
            size_t body_end;
            if (body_begin < toks.size() &&
                toks[body_begin].text == "{") {
                body_end = ts.match(body_begin);
                if (body_end == TokenStream::npos)
                    body_end = toks.size() - 1;
            } else {
                body_end = body_begin;
                while (body_end < toks.size() &&
                       toks[body_end].text != ";")
                    ++body_end;
            }

            if (!bodyFeedsOrderSensitiveSink(toks, body_begin,
                                             body_end))
                continue;
            emit(file, toks[i].line,
                 "iterating an unordered container into arithmetic "
                 "or serialized output makes the result depend on "
                 "hash seed and load factor",
                 report,
                 "iterate a sorted view (std::map / sorted keys), or "
                 "restrict the loop body to order-independent "
                 "updates");
        }
    }

    /**
     * True when the loop body accumulates (compound float-ish
     * assignment) or serializes (stream insertion, writer calls).
     */
    bool
    bodyFeedsOrderSensitiveSink(const std::vector<Token> &toks,
                                size_t begin, size_t end) const
    {
        for (size_t j = begin; j < end && j < toks.size(); ++j) {
            const Token &t = toks[j];
            if (t.kind == TokKind::Punct &&
                (t.text == "+=" || t.text == "-=" || t.text == "*=" ||
                 t.text == "/=" || t.text == "<<"))
                return true;
            if (t.kind == TokKind::Identifier &&
                (t.text.find("write") != std::string::npos ||
                 t.text.find("serial") != std::string::npos ||
                 t.text.find("print") != std::string::npos ||
                 t.text.find("append") != std::string::npos ||
                 t.text == "key" || t.text == "value"))
                return true;
        }
        return false;
    }

    /**
     * Function names referenced as calls (identifier followed by
     * '(' that is not a member access) in the given file.
     */
    std::set<std::string>
    referencedCalls(const SourceFile &file) const
    {
        std::set<std::string> out;
        const auto &toks = file.tokens().tokens();
        for (size_t i = 0; i + 1 < toks.size(); ++i) {
            if (toks[i].kind != TokKind::Identifier ||
                toks[i + 1].text != "(")
                continue;
            if (i >= 1 &&
                (toks[i - 1].text == "." || toks[i - 1].text == "->"))
                continue;
            if (isKeyword(toks[i].text))
                continue;
            out.insert(toks[i].text);
        }
        return out;
    }

    /** True when the header mentions `fn(` — a declaration. */
    bool
    declaresFunction(const SourceFile &hh, const std::string &fn) const
    {
        const auto &toks = hh.tokens().tokens();
        for (size_t i = 0; i + 1 < toks.size(); ++i)
            if (toks[i].kind == TokKind::Identifier &&
                toks[i].text == fn && toks[i + 1].text == "(")
                return true;
        return false;
    }

    /** Function-body scope names defined in the given file. */
    std::map<std::string, int>
    definedFunctions(const SourceFile &file) const
    {
        std::map<std::string, int> out;
        for (const Scope &s : file.scopes().scopes()) {
            if (s.kind == ScopeKind::Function && !s.name.empty())
                out.emplace(s.name,
                            file.lineOf(s.open_offset));
        }
        return out;
    }

    void
    checkSharedHelpers(const SourceRepo &repo, Report &report) const
    {
        const SourceFile *scalar = repo.find(kScalarTu);
        const SourceFile *batch = repo.find(kBatchTu);
        if (!scalar || !batch)
            return;

        const auto scalar_refs = referencedCalls(*scalar);
        const auto batch_refs = referencedCalls(*batch);

        for (const SourceFile *tu : {scalar, batch}) {
            const std::string header =
                tu->path().substr(0, tu->path().size() - 3) + ".hh";
            const SourceFile *hh = repo.find(header);
            for (const auto &[fn, line] : definedFunctions(*tu)) {
                if (!scalar_refs.count(fn) || !batch_refs.count(fn))
                    continue;
                // Declared in the TU's own header => a published
                // API both paths share, not a private copy.
                if (hh && declaresFunction(*hh, fn))
                    continue;
                emit(*tu, line,
                     strprintf("'%s' is referenced from both the "
                               "scalar and batched census paths but "
                               "defined in a .cc; a second private "
                               "copy would silently fork the "
                               "rounding order",
                               fn.c_str()),
                     report,
                     "move the definition to a shared header "
                     "(analytic_batch.hh / config_grid.hh) so one "
                     "arithmetic ordering serves both paths");
            }
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeFpDeterminismRule()
{
    return std::make_unique<FpDeterminismRule>();
}

} // namespace analysis
} // namespace gpuscale
