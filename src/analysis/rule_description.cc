/**
 * @file
 * Instrument-description rule: every instrument registered through
 * Registry::counter/gauge/histogram must carry a non-empty
 * description.
 *
 * The description is what `gpuscale --metrics` tables, the Prometheus
 * exposition's "# HELP" lines, and docs/observability.md's metric-key
 * table show to operators; an instrument registered without one is a
 * bare number a dashboard cannot explain.  Call sites whose name or
 * description is computed at runtime are left alone — the rule only
 * judges what it can read.
 */

#include <string>

#include "analysis/rules.hh"
#include "base/logging.hh"

namespace gpuscale {
namespace analysis {

namespace {

class DescriptionRule : public Rule
{
  public:
    std::string name() const override { return "description"; }

    std::string
    description() const override
    {
        return "registered instruments carry a non-empty description";
    }

    void
    run(const SourceRepo &repo, Report &report) const override
    {
        for (const auto &file : repo.files)
            if (file.isCpp())
                checkRegistrations(file, report);
    }

  private:
    static bool
    isSpace(char c)
    {
        return c == ' ' || c == '\n' || c == '\t';
    }

    /** First non-whitespace offset at or after `p` in code(). */
    static size_t
    skipSpace(const std::string &code, size_t p)
    {
        while (p < code.size() && isSpace(code[p]))
            ++p;
        return p;
    }

    /**
     * Total text length of the literal at `lit` plus any adjacent
     * literals concatenated after it ("operations " "retried"), and
     * the offset just past the final closing quote.
     */
    static void
    concatenatedLiteral(const SourceFile &file,
                        const StringLiteral *lit, size_t &text_len,
                        size_t &end)
    {
        const std::string &code = file.code();
        text_len = 0;
        // Literal text keeps escapes unprocessed, so its size equals
        // the source span between the quotes.
        end = lit->offset + 1 + lit->text.size() + 1;
        text_len += lit->text.size();
        for (;;) {
            const size_t next = skipSpace(code, end);
            if (next >= code.size() || code[next] != '"')
                break;
            const StringLiteral *cont = file.literalAtOrAfter(next);
            if (!cont || cont->offset != next)
                break;
            text_len += cont->text.size();
            end = cont->offset + 1 + cont->text.size() + 1;
        }
    }

    void
    checkRegistrations(const SourceFile &file, Report &report) const
    {
        for (const auto &method :
             {std::string("counter"), std::string("gauge"),
              std::string("histogram")})
        {
            for (size_t off : findTokens(file, method)) {
                const std::string &code = file.code();
                // Only method calls (".counter(") are registrations;
                // "Registry::counter(" is the definition itself.
                if (off == 0 || code[off - 1] != '.')
                    continue;
                const size_t after = off + method.size();
                if (after >= code.size() || code[after] != '(')
                    continue;
                const StringLiteral *name_lit =
                    file.literalAtOrAfter(after + 1);
                if (!name_lit ||
                    name_lit->offset != skipSpace(code, after + 1))
                {
                    continue; // Computed name: out of scope.
                }

                // Step past the (possibly concatenated) name literal
                // to the character deciding the call's shape.
                size_t name_len = 0, p = 0;
                concatenatedLiteral(file, name_lit, name_len, p);
                p = skipSpace(code, p);
                if (p >= code.size())
                    continue;

                if (code[p] == ')') {
                    emit(file, name_lit->line,
                         strprintf("instrument \"%s\" is registered "
                                   "without a description",
                                   name_lit->text.c_str()),
                         report);
                    continue;
                }
                if (code[p] != ',')
                    continue; // Not a shape this rule understands.

                const size_t q = skipSpace(code, p + 1);
                if (q >= code.size() || code[q] != '"')
                    continue; // Computed description: accepted.
                const StringLiteral *desc_lit =
                    file.literalAtOrAfter(q);
                if (!desc_lit || desc_lit->offset != q)
                    continue;
                size_t desc_len = 0, desc_end = 0;
                concatenatedLiteral(file, desc_lit, desc_len,
                                    desc_end);
                if (desc_len == 0) {
                    emit(file, desc_lit->line,
                         strprintf("instrument \"%s\" is registered "
                                   "with an empty description",
                                   name_lit->text.c_str()),
                         report);
                }
            }
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeDescriptionRule()
{
    return std::make_unique<DescriptionRule>();
}

} // namespace analysis
} // namespace gpuscale
