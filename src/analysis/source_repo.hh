/**
 * @file
 * Source model for gpuscale-lint.
 *
 * A SourceFile owns synchronized views of one translation unit:
 *  - raw():    the bytes on disk, untouched.
 *  - code():   the same bytes with comments and the *contents* of
 *              string/character literals blanked to spaces (newlines
 *              preserved), so rules can match tokens without tripping
 *              over prose or quoted examples.  The literal delimiters
 *              themselves survive, and every literal's text is kept
 *              in a side table for rules that inspect names.
 *  - tokens(): the code() view lexed into a TokenStream, and
 *  - scopes(): its brace pairs classified into a ScopeTree
 *              (tokens.hh) — the shared engine scope-sensitive rules
 *              build on.
 *
 * Offsets are shared between the views, so a match found in code()
 * can be mapped to a line number, a token, a scope, or the nearest
 * string literal.
 *
 * Two file kinds are scanned: C++ sources (.cc/.hh) get the full
 * treatment; CMake lists (fp-determinism checks compiler flags) get
 * `#` comments blanked and no token stream.
 *
 * Comment markers:
 *
 *     // gpuscale-lint: allow(rule-a, rule-b): why this is fine
 *
 * disables the named rules on the comment's own line and on the line
 * after it (covering both trailing and standalone placement).  A
 * marker that fails to parse, or names no real rule, disables
 * nothing, so the finding it was written for still fails the run.
 *
 *     // guarded_by(mutex_name)
 *
 * attaches to the field declared on the same line (or the line
 * below, for standalone comments) and is enforced by the
 * lock-discipline rule: every touch of that field must sit in a
 * scope that constructed a lock on the named mutex.
 */

#ifndef GPUSCALE_ANALYSIS_SOURCE_REPO_HH
#define GPUSCALE_ANALYSIS_SOURCE_REPO_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/tokens.hh"

namespace gpuscale {
namespace analysis {

/** One string literal found while scanning; text excludes quotes. */
struct StringLiteral {
    size_t offset;    ///< offset of the opening quote in code()/raw()
    int line;         ///< 1-based line of the opening quote
    std::string text; ///< contents, escapes left unprocessed
};

/** One // guarded_by(mutex) annotation, resolved to its field. */
struct GuardAnnotation {
    int line = 0;      ///< line the annotation binds to
    std::string field; ///< annotated field name ("" if unresolved)
    std::string mutex; ///< the guarding mutex's identifier
};

/** One source file with its companion views. */
class SourceFile
{
  public:
    enum class Kind {
        Cpp,   ///< .cc / .hh translation unit
        CMake, ///< CMakeLists.txt / *.cmake
    };

    /**
     * @param rel_path repo-relative path with '/' separators
     *                 (e.g. "src/base/csv.cc").
     * @param raw      full file contents.
     */
    SourceFile(std::string rel_path, std::string raw);

    /** Deferred-scan constructor; loadRepo() scans in parallel. */
    struct DeferScan {};
    SourceFile(std::string rel_path, std::string raw, DeferScan);

    /** Build the code view, literals, tokens, and scopes (idempotent,
     *  not concurrency-safe on the same instance). */
    void ensureScanned();

    const std::string &path() const { return path_; }
    const std::string &raw() const { return raw_; }
    const std::string &code() const { return code_; }

    Kind kind() const { return kind_; }
    bool isCpp() const { return kind_ == Kind::Cpp; }

    /** 1-based line containing the given offset. */
    int lineOf(size_t offset) const;

    /** All string literals in file order. */
    const std::vector<StringLiteral> &literals() const
    {
        return literals_;
    }

    /**
     * The first string literal whose opening quote sits at or after
     * the given offset, or nullptr if none.
     */
    const StringLiteral *literalAtOrAfter(size_t offset) const;

    /** True if a gpuscale-lint: allow(...) covers rule on this line. */
    bool suppressed(int line, const std::string &rule) const;

    /** Every guarded_by annotation, for the lock-discipline rule. */
    const std::vector<GuardAnnotation> &guardAnnotations() const
    {
        return guards_;
    }

    /** Lexed code() view; empty for CMake files. */
    const TokenStream &tokens() const { return tokens_; }

    /** Brace-scope structure; empty for CMake files. */
    const ScopeTree &scopes() const { return scopes_; }

    /**
     * Layer directory under src/ ("base", "gpu", ...; "gpu" also for
     * src/gpu/timing/...), or "" if the file is not under src/.
     */
    std::string layer() const;

    bool isHeader() const;

  private:
    void scan();
    void scanCMake();
    void recordSuppression(const std::string &comment, int first_line,
                           int last_line);
    void recordGuards(const std::string &comment, int first_line,
                      int last_line);
    void resolveGuardFields();

    /** Pending run of consecutive // lines, merged into one block. */
    struct PendingComment {
        bool active = false;
        int first_line = 0;
        int last_line = 0;
        std::string text;
    };

    void appendLineComment(PendingComment &pending,
                           const std::string &text, int line);
    void flushLineComments(PendingComment &pending);

    std::string path_;
    std::string raw_;
    std::string code_;
    Kind kind_ = Kind::Cpp;
    bool scanned_ = false;
    std::vector<size_t> line_offsets_;
    std::vector<StringLiteral> literals_;
    std::vector<GuardAnnotation> guards_;
    /** (first_line, last_line) of each guard's comment block. */
    std::vector<std::pair<int, int>> guard_spans_;
    TokenStream tokens_;
    ScopeTree scopes_;
    /** line -> rules allowed on that line. */
    std::map<int, std::set<std::string>> suppressions_;
};

/** Every scanned file of one repository checkout. */
struct SourceRepo {
    std::string root;              ///< absolute repo root
    std::vector<SourceFile> files; ///< sorted by path

    /** Find by repo-relative path; nullptr if absent. */
    const SourceFile *find(const std::string &rel_path) const;
};

/**
 * Load every .cc/.hh file under root/src — plus the checkout's
 * CMake lists (root CMakeLists.txt and any under src/, tests/,
 * bench/) for the flag-checking rules — into a SourceRepo.  Files
 * are read serially and scanned in parallel through the harness
 * pool.
 *
 * @param root repository root directory (must contain src/).
 */
SourceRepo loadRepo(const std::string &root);

} // namespace analysis
} // namespace gpuscale

#endif // GPUSCALE_ANALYSIS_SOURCE_REPO_HH
