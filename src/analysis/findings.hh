/**
 * @file
 * Findings and report model for gpuscale-lint.
 *
 * Rules emit Findings into a Report; the driver renders the report
 * as compiler-style "file:line: error: [rule] message" lines, and
 * any finding at all fails the run.  Suppressed findings are counted
 * (so a silent tree still tells you the rules ran) but carry no
 * location.
 */

#ifndef GPUSCALE_ANALYSIS_FINDINGS_HH
#define GPUSCALE_ANALYSIS_FINDINGS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace gpuscale {
namespace analysis {

/** One rule violation at one source location. */
struct Finding {
    std::string rule;
    std::string file; ///< repo-relative path
    int line = 0;     ///< 1-based
    std::string message;
    std::string hint; ///< optional fix-it suggestion ("" for none)

    /** The rendered "file:line: error: [rule] message" form, with
     *  " (fix: hint)" appended when a hint is present. */
    std::string render() const;
};

/** Accumulates findings across all rules of one lint run. */
class Report
{
  public:
    void add(Finding f);

    /** Record that a finding was silenced by an allow() comment. */
    void noteSuppressed() { ++suppressed_; }

    /** Findings sorted by (file, line, rule). */
    const std::vector<Finding> &findings() const;

    /** Findings silenced so far, for the summary line. */
    size_t suppressedCount() const { return suppressed_; }

    /** All findings rendered one per line (empty string if clean). */
    std::string render() const;

  private:
    mutable std::vector<Finding> findings_;
    mutable bool sorted_ = true;
    size_t suppressed_ = 0;
};

} // namespace analysis
} // namespace gpuscale

#endif // GPUSCALE_ANALYSIS_FINDINGS_HH
