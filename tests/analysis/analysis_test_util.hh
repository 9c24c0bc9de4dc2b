/**
 * @file
 * Shared helpers for the gpuscale-lint test suite.
 *
 * Fixture repos live under tests/analysis/fixtures/<case>/ — each is
 * a miniature checkout with its own src/ tree.  CTest exports the
 * fixtures directory as GPUSCALE_ANALYSIS_FIXTURES (see
 * tests/CMakeLists.txt); running a test binary by hand needs it set
 * the same way.  The checkout itself is linted by lint_repo_clean.
 */

#ifndef GPUSCALE_TESTS_ANALYSIS_TEST_UTIL_HH
#define GPUSCALE_TESTS_ANALYSIS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "analysis/findings.hh"
#include "analysis/rules.hh"
#include "analysis/source_repo.hh"

namespace gpuscale {
namespace analysis {
namespace test {

/** Value of a required environment variable; fails the test if unset. */
inline std::string
requiredEnv(const char *name)
{
    const char *value = std::getenv(name);
    EXPECT_NE(value, nullptr)
        << name << " must be set (ctest exports it; for manual runs "
        << "point it at tests/analysis/fixtures)";
    return value ? value : "";
}

/** Load one fixture repo by its directory name. */
inline SourceRepo
loadFixture(const std::string &case_name)
{
    return loadRepo(requiredEnv("GPUSCALE_ANALYSIS_FIXTURES") + "/" +
                    case_name);
}

/** Run a single rule over a repo. */
inline Report
runRule(const Rule &rule, const SourceRepo &repo)
{
    Report report;
    rule.run(repo, report);
    return report;
}

/** Count findings attributed to the given rule name. */
inline size_t
findingCount(const Report &report, const std::string &rule)
{
    size_t n = 0;
    for (const auto &f : report.findings())
        n += f.rule == rule ? 1 : 0;
    return n;
}

/** True if any finding's message contains the given needle. */
inline bool
anyMessageContains(const Report &report, const std::string &needle)
{
    for (const auto &f : report.findings()) {
        if (f.message.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace test
} // namespace analysis
} // namespace gpuscale

#endif // GPUSCALE_TESTS_ANALYSIS_TEST_UTIL_HH
