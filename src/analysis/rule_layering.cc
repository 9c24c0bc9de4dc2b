/**
 * @file
 * Layering rule: quoted includes must flow downward through the
 * layer order base -> obs -> gpu -> workloads -> scaling -> harness
 * -> service -> analysis -> tools, and the header include graph must be
 * acyclic.  Local includes ("registry.hh") resolve to the includer's
 * own directory and are always same-layer; path includes resolve
 * against src/ (or the includer's directory for nested dirs like
 * gpu/timing/).
 */

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/rules.hh"
#include "base/logging.hh"

namespace gpuscale {
namespace analysis {

namespace {

/** Lower layers may not include higher ones. */
const std::map<std::string, int> &
layerRanks()
{
    static const std::map<std::string, int> ranks = {
        {"base", 0},     {"obs", 1},     {"gpu", 2},
        {"workloads", 3}, {"scaling", 4}, {"harness", 5},
        {"service", 6},  {"analysis", 7}, {"tools", 8},
    };
    return ranks;
}

/** One parsed #include "..." directive. */
struct Include {
    size_t offset;    ///< offset of the '#' in code()
    int line;
    std::string path; ///< the quoted string, verbatim
};

std::vector<Include>
parseIncludes(const SourceFile &file)
{
    std::vector<Include> out;
    const std::string &code = file.code();
    size_t pos = 0;
    while ((pos = code.find('#', pos)) != std::string::npos) {
        const size_t hash = pos;
        ++pos;
        size_t p = hash + 1;
        while (p < code.size() && (code[p] == ' ' || code[p] == '\t'))
            ++p;
        static const std::string kWord = "include";
        if (code.compare(p, kWord.size(), kWord) != 0)
            continue;
        p += kWord.size();
        while (p < code.size() && (code[p] == ' ' || code[p] == '\t'))
            ++p;
        if (p >= code.size() || code[p] != '"')
            continue;
        const StringLiteral *lit = file.literalAtOrAfter(p);
        if (!lit || lit->offset != p)
            continue;
        out.push_back({hash, file.lineOf(hash), lit->text});
    }
    return out;
}

/** Directory part of a repo-relative path ("src/base"). */
std::string
dirOf(const std::string &path)
{
    const size_t slash = path.rfind('/');
    return slash == std::string::npos ? "" : path.substr(0, slash);
}

class LayeringRule : public Rule
{
  public:
    std::string name() const override { return "layering"; }

    std::string
    description() const override
    {
        return "includes respect the base->...->tools layer order "
               "and the header graph is acyclic";
    }

    void
    run(const SourceRepo &repo, Report &report) const override
    {
        // path -> included header paths, for cycle detection.
        std::map<std::string, std::vector<std::string>> graph;

        for (const auto &file : repo.files) {
            if (!file.isCpp())
                continue;
            const std::string layer = file.layer();
            if (layer.empty())
                continue;
            const auto layer_it = layerRanks().find(layer);
            if (layer_it == layerRanks().end()) {
                emit(file, 1,
                     strprintf("file lives in unknown layer '%s'; "
                               "add it to the layering rule's order",
                               layer.c_str()),
                     report);
                continue;
            }

            for (const auto &inc : parseIncludes(file)) {
                checkInclude(repo, file, layer_it->second, inc, graph,
                             report);
            }
        }

        reportCycles(repo, graph, report);
    }

  private:
    void
    checkInclude(const SourceRepo &repo, const SourceFile &file,
                 int rank, const Include &inc,
                 std::map<std::string, std::vector<std::string>> &graph,
                 Report &report) const
    {
        // Local include: same directory, same layer by construction.
        const std::string local = dirOf(file.path()) + "/" + inc.path;
        if (inc.path.find('/') == std::string::npos ||
            repo.find(local)) {
            if (repo.find(local))
                graph[file.path()].push_back(local);
            else
                emit(file, inc.line,
                     strprintf("local include \"%s\" not found next "
                               "to %s",
                               inc.path.c_str(), file.path().c_str()),
                     report);
            return;
        }

        // Layer-qualified include: "layer/rest.hh" rooted at src/.
        const std::string top =
            inc.path.substr(0, inc.path.find('/'));
        const auto it = layerRanks().find(top);
        if (it == layerRanks().end()) {
            emit(file, inc.line,
                 strprintf("include \"%s\" is neither a local header "
                           "nor rooted at a known layer",
                           inc.path.c_str()),
                 report);
            return;
        }
        if (it->second > rank) {
            emit(file, inc.line,
                 strprintf("layer '%s' must not include '%s' "
                           "(\"%s\"): the layer order is base -> obs "
                           "-> gpu -> workloads -> scaling -> "
                           "harness -> service -> analysis -> tools",
                           file.layer().c_str(), top.c_str(),
                           inc.path.c_str()),
                 report);
        }
        const std::string resolved = "src/" + inc.path;
        if (repo.find(resolved))
            graph[file.path()].push_back(resolved);
        else
            emit(file, inc.line,
                 strprintf("include \"%s\" does not resolve to a "
                           "file under src/",
                           inc.path.c_str()),
                 report);
    }

    void
    reportCycles(const SourceRepo &repo,
                 const std::map<std::string,
                                std::vector<std::string>> &graph,
                 Report &report) const
    {
        // Iterative three-color DFS over headers only (a .cc cannot
        // be included, so it cannot close a cycle).
        std::map<std::string, int> color; // 0 white 1 grey 2 black
        std::vector<std::string> stack;
        std::set<std::string> reported;

        for (const auto &[node, edges] : graph) {
            if (color[node] == 0)
                dfs(repo, node, graph, color, stack, reported,
                    report);
        }
    }

    void
    dfs(const SourceRepo &repo, const std::string &node,
        const std::map<std::string, std::vector<std::string>> &graph,
        std::map<std::string, int> &color,
        std::vector<std::string> &stack,
        std::set<std::string> &reported, Report &report) const
    {
        color[node] = 1;
        stack.push_back(node);
        const auto it = graph.find(node);
        if (it != graph.end()) {
            for (const auto &next : it->second) {
                if (!repo.find(next) ||
                    !repo.find(next)->isHeader())
                    continue;
                if (color[next] == 1) {
                    reportCycle(repo, stack, next, reported, report);
                } else if (color[next] == 0) {
                    dfs(repo, next, graph, color, stack, reported,
                        report);
                }
            }
        }
        stack.pop_back();
        color[node] = 2;
    }

    void
    reportCycle(const SourceRepo &repo,
                const std::vector<std::string> &stack,
                const std::string &entry,
                std::set<std::string> &reported,
                Report &report) const
    {
        std::vector<std::string> cycle;
        bool in_cycle = false;
        for (const auto &n : stack) {
            if (n == entry)
                in_cycle = true;
            if (in_cycle)
                cycle.push_back(n);
        }
        // Canonical key so the same loop is reported once however
        // the DFS enters it.
        std::vector<std::string> key(cycle);
        std::sort(key.begin(), key.end());
        std::string joined;
        for (const auto &n : key)
            joined += n + "|";
        if (!reported.insert(joined).second)
            return;

        std::string path;
        for (const auto &n : cycle)
            path += n + " -> ";
        path += entry;
        const SourceFile *head = repo.find(entry);
        emit(*head, 1,
             strprintf("header include cycle: %s", path.c_str()),
             report);
    }
};

} // namespace

std::unique_ptr<Rule>
makeLayeringRule()
{
    return std::make_unique<LayeringRule>();
}

} // namespace analysis
} // namespace gpuscale
