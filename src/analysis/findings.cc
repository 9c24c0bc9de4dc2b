#include "findings.hh"

#include <algorithm>
#include <tuple>

#include "base/logging.hh"

namespace gpuscale {
namespace analysis {

std::string
Finding::render() const
{
    std::string out = strprintf("%s:%d: error: [%s] %s", file.c_str(),
                                line, rule.c_str(), message.c_str());
    if (!hint.empty())
        out += strprintf(" (fix: %s)", hint.c_str());
    return out;
}

void
Report::add(Finding f)
{
    findings_.push_back(std::move(f));
    sorted_ = false;
}

const std::vector<Finding> &
Report::findings() const
{
    if (!sorted_) {
        std::stable_sort(findings_.begin(), findings_.end(),
                         [](const Finding &a, const Finding &b) {
                             return std::tie(a.file, a.line, a.rule) <
                                    std::tie(b.file, b.line, b.rule);
                         });
        sorted_ = true;
    }
    return findings_;
}

std::string
Report::render() const
{
    std::string out;
    for (const auto &f : findings()) {
        out += f.render();
        out += '\n';
    }
    return out;
}

} // namespace analysis
} // namespace gpuscale
