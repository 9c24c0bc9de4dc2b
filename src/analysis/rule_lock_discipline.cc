/**
 * @file
 * lock-discipline rule: fields annotated `// guarded_by(mu)` may only
 * be touched inside a scope that constructed a std::lock_guard /
 * unique_lock / scoped_lock on `mu`.  Helpers whose name ends in
 * "Locked" are exempt — the suffix is this repo's convention for
 * "caller already holds the lock" — as are touches outside any
 * function body (the declaration itself, member-init lists).
 *
 * The annotation lives on the field declaration in the header; the
 * rule checks touches both in that header and in its sibling .cc,
 * where the method bodies live.  Compared to a blanket
 * allow(concurrency) comment on the mutex, this actually ties every
 * access back to the lock, so a new method that forgets the guard is
 * caught the day it is written.
 */

#include <string>
#include <vector>

#include "analysis/rules.hh"
#include "base/logging.hh"

namespace gpuscale {
namespace analysis {

namespace {

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/** "src/x/y.hh" <-> "src/x/y.cc"; "" when no sibling naming fits. */
std::string
siblingPath(const std::string &path)
{
    if (endsWith(path, ".hh"))
        return path.substr(0, path.size() - 3) + ".cc";
    if (endsWith(path, ".cc"))
        return path.substr(0, path.size() - 3) + ".hh";
    return "";
}

bool
isLockType(const std::string &t)
{
    return t == "lock_guard" || t == "unique_lock" ||
           t == "scoped_lock";
}

class LockDisciplineRule : public Rule
{
  public:
    std::string name() const override { return "lock-discipline"; }

    std::string
    description() const override
    {
        return "fields annotated // guarded_by(mu) are only touched "
               "under a lock on mu (or in *Locked helpers)";
    }

    void
    run(const SourceRepo &repo, Report &report) const override
    {
        for (const auto &file : repo.files) {
            if (!file.isCpp())
                continue;
            for (const auto &guard : file.guardAnnotations())
                checkGuard(repo, file, guard, report);
        }
    }

  private:
    void
    checkGuard(const SourceRepo &repo, const SourceFile &file,
               const GuardAnnotation &guard, Report &report) const
    {
        if (guard.mutex.empty()) {
            emit(file, guard.line,
                 "malformed guarded_by annotation (expected "
                 "// guarded_by(mutex_name))",
                 report, "name the mutex: // guarded_by(mu_)");
            return;
        }
        if (guard.field.empty()) {
            emit(file, guard.line,
                 strprintf("guarded_by(%s) does not attach to a "
                           "field declaration",
                           guard.mutex.c_str()),
                 report,
                 "place the comment on the field's own line or the "
                 "line above it");
            return;
        }
        if (!fileNamesIdentifier(file, guard.mutex)) {
            emit(file, guard.line,
                 strprintf("guarded_by(%s) names a mutex that does "
                           "not appear in this file",
                           guard.mutex.c_str()),
                 report, "fix the mutex name in the annotation");
            return;
        }

        checkTouches(file, file, guard, report);
        const std::string sibling = siblingPath(file.path());
        if (const SourceFile *sib = repo.find(sibling))
            checkTouches(file, *sib, guard, report);
    }

    bool
    fileNamesIdentifier(const SourceFile &file,
                        const std::string &name) const
    {
        for (const Token &t : file.tokens().tokens())
            if (t.kind == TokKind::Identifier && t.text == name)
                return true;
        return false;
    }

    void
    checkTouches(const SourceFile &decl_file, const SourceFile &file,
                 const GuardAnnotation &guard, Report &report) const
    {
        const auto &toks = file.tokens().tokens();
        for (size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != TokKind::Identifier ||
                t.text != guard.field)
                continue;
            // The annotated declaration itself.
            if (&file == &decl_file && t.line == guard.line)
                continue;
            // `other.map_` touches a different instance's member;
            // only unqualified and this-> accesses are in scope.
            if (i >= 2 &&
                (toks[i - 1].text == "." ||
                 toks[i - 1].text == "->") &&
                toks[i - 2].kind == TokKind::Identifier &&
                toks[i - 2].text != "this")
                continue;

            const int fn =
                file.scopes().enclosingFunction(t.offset);
            if (fn < 0)
                continue; // declaration, member-init list, ...
            const Scope &fscope = file.scopes().scopes()[fn];
            if (endsWith(fscope.name, "Locked"))
                continue; // caller holds the lock by convention
            if (lockCovers(file, guard.mutex, t.offset))
                continue;

            emit(file, t.line,
                 strprintf("'%s' is guarded_by(%s) but touched "
                           "without a lock on it",
                           guard.field.c_str(),
                           guard.mutex.c_str()),
                 report,
                 strprintf("take std::lock_guard<std::mutex> "
                           "lock(%s) in this scope, or rename the "
                           "helper to *Locked if the caller holds "
                           "it",
                           guard.mutex.c_str()));
        }
    }

    /**
     * True when a lock_guard/unique_lock/scoped_lock naming the
     * mutex is constructed before `offset` in a scope that encloses
     * (or is) the touch's scope.
     */
    bool
    lockCovers(const SourceFile &file, const std::string &mutex,
               size_t offset) const
    {
        const auto &toks = file.tokens().tokens();
        const int touch_scope = file.scopes().innermostAt(offset);
        for (size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].kind != TokKind::Identifier ||
                !isLockType(toks[i].text) ||
                toks[i].offset >= offset)
                continue;
            // Does the lock's declaration statement name the mutex?
            bool names_mutex = false;
            for (size_t j = i + 1;
                 j < toks.size() && toks[j].text != ";"; ++j) {
                if (toks[j].kind == TokKind::Identifier &&
                    toks[j].text == mutex) {
                    names_mutex = true;
                    break;
                }
            }
            if (!names_mutex)
                continue;
            const int lock_scope =
                file.scopes().innermostAt(toks[i].offset);
            if (lock_scope >= 0 && touch_scope >= 0 &&
                file.scopes().isAncestorOrSelf(lock_scope,
                                               touch_scope))
                return true;
        }
        return false;
    }
};

} // namespace

std::unique_ptr<Rule>
makeLockDisciplineRule()
{
    return std::make_unique<LockDisciplineRule>();
}

} // namespace analysis
} // namespace gpuscale
