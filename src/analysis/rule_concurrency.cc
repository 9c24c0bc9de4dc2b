/**
 * @file
 * Concurrency-hygiene rule: worker threads are created in exactly
 * one place (harness/thread_pool) and fanned out through
 * parallelFor (harness/parallel).  Everywhere else, spawning a
 * std::thread, detaching one, or declaring a raw mutex /
 * condition variable is a finding — thread-safe leaf modules (the
 * logging sink, the metrics registry) document their primitives
 * with an allow(concurrency) comment instead.
 *
 * `std::thread::hardware_concurrency()` is a capacity query, not a
 * spawn, and is always fine; `std::lock_guard<std::mutex>` only
 * *uses* a declared mutex, so template arguments are exempt too.
 *
 * A mutex whose name appears in a `// guarded_by(...)` annotation in
 * the same file is also exempt: the lock-discipline rule then
 * enforces, per field access, what the allow(concurrency) comment
 * could only assert.
 */

#include <set>
#include <string>
#include <vector>

#include "analysis/rules.hh"
#include "base/logging.hh"

namespace gpuscale {
namespace analysis {

namespace {

bool
isPoolFile(const std::string &path)
{
    return path == "src/harness/thread_pool.hh" ||
           path == "src/harness/thread_pool.cc" ||
           path == "src/harness/parallel.hh" ||
           path == "src/harness/parallel.cc";
}

class ConcurrencyRule : public Rule
{
  public:
    std::string name() const override { return "concurrency"; }

    std::string
    description() const override
    {
        return "thread creation and raw mutexes stay inside "
               "harness/thread_pool and harness/parallel";
    }

    void
    run(const SourceRepo &repo, Report &report) const override
    {
        for (const auto &file : repo.files) {
            if (!file.isCpp() || isPoolFile(file.path()))
                continue;
            checkThreads(file, report);
            checkDetach(file, report);
            checkMutexes(file, report);
        }
    }

  private:
    void
    checkThreads(const SourceFile &file, Report &report) const
    {
        for (const auto &spawn :
             {std::string("std::thread"), std::string("std::jthread")})
        {
            for (size_t off : findTokens(file, spawn)) {
                // std::thread::hardware_concurrency() and friends
                // are queries, not spawns.
                const size_t after = off + spawn.size();
                if (after < file.code().size() &&
                    file.code()[after] == ':')
                    continue;
                emit(file, file.lineOf(off),
                     strprintf("%s outside the harness thread pool; "
                               "use parallelFor (harness/parallel.hh)",
                               spawn.c_str()),
                     report);
            }
        }
    }

    void
    checkDetach(const SourceFile &file, Report &report) const
    {
        for (size_t off : findTokens(file, "detach")) {
            const std::string &code = file.code();
            if (off == 0 || code[off - 1] != '.')
                continue;
            const size_t after = off + std::string("detach").size();
            if (after >= code.size() || code[after] != '(')
                continue;
            emit(file, file.lineOf(off),
                 "detached threads outlive their owner and race "
                 "process shutdown; join via the pool instead",
                 report);
        }
    }

    void
    checkMutexes(const SourceFile &file, Report &report) const
    {
        // Mutexes referenced from a guarded_by annotation are
        // governed by the lock-discipline rule instead.
        std::set<std::string> disciplined;
        for (const auto &guard : file.guardAnnotations())
            if (!guard.mutex.empty())
                disciplined.insert(guard.mutex);

        for (const auto &prim :
             {std::string("std::mutex"),
              std::string("std::recursive_mutex"),
              std::string("std::shared_mutex"),
              std::string("std::condition_variable")})
        {
            for (size_t off : findTokens(file, prim)) {
                const std::string &code = file.code();
                // A template argument (lock_guard<std::mutex>) uses
                // a mutex declared elsewhere; only declarations are
                // findings.
                size_t before = off;
                while (before > 0 && code[before - 1] == ' ')
                    --before;
                if (before > 0 && code[before - 1] == '<')
                    continue;
                // std::recursive_mutex also contains "std::mutex"?
                // No — findTokens anchors the whole token at a
                // boundary, but guard against the suffix forms:
                const size_t after = off + prim.size();
                if (after < code.size() &&
                    (code[after] == '_' ||
                     std::isalnum(
                         static_cast<unsigned char>(code[after]))))
                    continue;
                if (!disciplined.empty() &&
                    disciplined.count(declaredName(code, after)))
                    continue;
                emit(file, file.lineOf(off),
                     strprintf("raw %s outside the harness pool; if "
                               "this module genuinely needs one, add "
                               "// gpuscale-lint: allow(concurrency) "
                               "with a reason",
                               prim.c_str()),
                     report);
            }
        }
    }

    /** Identifier declared right after a type mention, if any. */
    std::string
    declaredName(const std::string &code, size_t after) const
    {
        size_t i = after;
        while (i < code.size() && code[i] == ' ')
            ++i;
        size_t begin = i;
        while (i < code.size() &&
               (std::isalnum(static_cast<unsigned char>(code[i])) ||
                code[i] == '_'))
            ++i;
        return code.substr(begin, i - begin);
    }
};

} // namespace

std::unique_ptr<Rule>
makeConcurrencyRule()
{
    return std::make_unique<ConcurrencyRule>();
}

} // namespace analysis
} // namespace gpuscale
