#include "source_repo.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "harness/parallel.hh"

namespace gpuscale {
namespace analysis {

namespace {

bool
isCMakePath(const std::string &path)
{
    const auto ends_with = [&](const char *suffix) {
        const size_t n = std::char_traits<char>::length(suffix);
        return path.size() >= n &&
               path.compare(path.size() - n, n, suffix) == 0;
    };
    return ends_with("CMakeLists.txt") || ends_with(".cmake");
}

} // namespace

SourceFile::SourceFile(std::string rel_path, std::string raw)
    : path_(std::move(rel_path)), raw_(std::move(raw))
{
    kind_ = isCMakePath(path_) ? Kind::CMake : Kind::Cpp;
    ensureScanned();
}

SourceFile::SourceFile(std::string rel_path, std::string raw,
                       DeferScan)
    : path_(std::move(rel_path)), raw_(std::move(raw))
{
    kind_ = isCMakePath(path_) ? Kind::CMake : Kind::Cpp;
}

void
SourceFile::ensureScanned()
{
    if (scanned_)
        return;
    scanned_ = true;
    if (kind_ == Kind::CMake)
        scanCMake();
    else
        scan();
}

namespace {

/** True for characters that may appear in a lint rule name. */
bool
isRuleChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
           c == '_';
}

bool
isIdentCh(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * First occurrence of marker that starts a comment line (only
 * whitespace before it since the previous newline), or npos.  Keeps
 * prose that merely *mentions* a marker — docs, rule messages — from
 * being parsed as one.
 */
size_t
anchoredFind(const std::string &text, const std::string &marker)
{
    size_t pos = 0;
    while ((pos = text.find(marker, pos)) != std::string::npos) {
        size_t bol = text.rfind('\n', pos);
        bol = bol == std::string::npos ? 0 : bol + 1;
        // whitespace, the comment's own slashes, whitespace — then
        // the marker must start.
        size_t i = bol;
        while (i < pos && (text[i] == ' ' || text[i] == '\t'))
            ++i;
        while (i < pos && text[i] == '/')
            ++i;
        while (i < pos && (text[i] == ' ' || text[i] == '\t'))
            ++i;
        if (i == pos)
            return pos;
        ++pos;
    }
    return std::string::npos;
}

} // namespace

void
SourceFile::recordSuppression(const std::string &comment,
                              int first_line, int last_line)
{
    static const std::string kMarker = "gpuscale-lint: allow(";
    const size_t tag = anchoredFind(comment, "gpuscale-lint:");
    if (tag == std::string::npos ||
        comment.compare(tag, kMarker.size(), kMarker) != 0)
        return;
    const size_t pos = tag + kMarker.size();
    const size_t close = comment.find(')', pos);
    if (close == std::string::npos)
        return;

    std::set<std::string> rules;
    std::string cur;
    for (size_t i = pos; i <= close; ++i) {
        const char c = comment[i];
        if (i < close && isRuleChar(c)) {
            cur += c;
        } else if (!cur.empty()) {
            rules.insert(cur);
            cur.clear();
        }
    }

    // The comment's own lines plus the one after it, so the marker
    // works both trailing a statement and on its own line above one.
    for (int line = first_line; line <= last_line + 1; ++line)
        suppressions_[line].insert(rules.begin(), rules.end());
}

void
SourceFile::recordGuards(const std::string &comment, int first_line,
                         int last_line)
{
    static const std::string kMarker = "guarded_by(";
    size_t pos = anchoredFind(comment, kMarker);
    if (pos == std::string::npos)
        return;
    pos += kMarker.size();
    std::string mutex;
    while (pos < comment.size() && isIdentCh(comment[pos])) {
        mutex += comment[pos];
        ++pos;
    }
    // A truncated or empty marker still records (with an empty mutex)
    // so the lock-discipline rule can flag it instead of silently
    // checking nothing.
    if (pos >= comment.size() || comment[pos] != ')')
        mutex.clear();

    GuardAnnotation g;
    g.line = first_line;
    g.mutex = std::move(mutex);
    guards_.push_back(std::move(g));
    guard_spans_.push_back({first_line, last_line});
}

void
SourceFile::resolveGuardFields()
{
    // The annotation binds to the field declared on the comment's own
    // (first) line — the trailing form — or, for a standalone
    // comment, on the line right below the block.  The field is the
    // identifier immediately before the declaration's first ';', '=',
    // or '{' on that line.
    const auto fieldOnLine = [&](int line) -> std::string {
        const Token *prev = nullptr;
        for (const Token &t : tokens_.tokens()) {
            if (t.line < line)
                continue;
            if (t.line > line)
                break;
            if (t.kind == TokKind::Punct &&
                (t.text == ";" || t.text == "=" || t.text == "{")) {
                if (prev && prev->kind == TokKind::Identifier)
                    return prev->text;
                return "";
            }
            prev = &t;
        }
        return "";
    };

    for (size_t i = 0; i < guards_.size(); ++i) {
        std::string field = fieldOnLine(guard_spans_[i].first);
        int line = guard_spans_[i].first;
        if (field.empty()) {
            line = guard_spans_[i].second + 1;
            field = fieldOnLine(line);
        }
        guards_[i].field = std::move(field);
        guards_[i].line = line;
    }
}

void
SourceFile::appendLineComment(PendingComment &pending,
                              const std::string &text, int line)
{
    // Consecutive // lines form one logical block, so an allow()
    // marker inside a wrapped comment still covers the statement
    // right below the block.
    if (pending.active && line == pending.last_line + 1) {
        pending.text += '\n';
        pending.text += text;
        pending.last_line = line;
        return;
    }
    flushLineComments(pending);
    pending = {true, line, line, text};
}

void
SourceFile::flushLineComments(PendingComment &pending)
{
    if (!pending.active)
        return;
    recordSuppression(pending.text, pending.first_line,
                      pending.last_line);
    recordGuards(pending.text, pending.first_line, pending.last_line);
    pending.active = false;
}

void
SourceFile::scan()
{
    enum class State {
        Normal,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };

    code_.assign(raw_.size(), ' ');
    line_offsets_.push_back(0);

    State state = State::Normal;
    int line = 1;
    int comment_start_line = 1;
    std::string comment_text;
    PendingComment pending;
    std::string literal_text;
    std::string raw_delim; // raw string closing delimiter: )delim"
    size_t literal_offset = 0;
    int literal_line = 1;

    const size_t n = raw_.size();
    for (size_t i = 0; i < n; ++i) {
        const char c = raw_[i];
        const char next = i + 1 < n ? raw_[i + 1] : '\0';
        if (c == '\n') {
            code_[i] = '\n';
            ++line;
            line_offsets_.push_back(i + 1);
        }

        switch (state) {
          case State::Normal:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                comment_start_line = line;
                comment_text.clear();
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                comment_start_line = line;
                comment_text.clear();
                ++i; // consume '*' so "/*/" is not a full comment
            } else if (c == '"') {
                // R"delim( ... )delim" — check for a raw prefix.
                if (i > 0 && raw_[i - 1] == 'R') {
                    size_t p = i + 1;
                    std::string delim;
                    while (p < n && raw_[p] != '(' &&
                           delim.size() < 16) {
                        delim += raw_[p];
                        ++p;
                    }
                    if (p < n && raw_[p] == '(') {
                        state = State::RawString;
                        raw_delim = ")" + delim + "\"";
                        literal_offset = i;
                        literal_line = line;
                        literal_text.clear();
                        code_[i] = '"';
                        // Skip the delimiter and '('.
                        i = p;
                        break;
                    }
                }
                state = State::String;
                literal_offset = i;
                literal_line = line;
                literal_text.clear();
                code_[i] = '"';
            } else if (c == '\'') {
                // A digit separator (1'000'000, 0xFF'FF) is part of
                // its number, not the start of a char literal: the
                // preceding alnum run must begin with a digit.  A
                // char-literal prefix (L'a', u8'a') begins with a
                // letter, so it still lexes as a literal.
                size_t run = i;
                while (run > 0 && (isIdentCh(raw_[run - 1]) ||
                                   raw_[run - 1] == '\''))
                    --run;
                const bool separator =
                    run < i && raw_[run] >= '0' && raw_[run] <= '9';
                if (separator) {
                    code_[i] = '\'';
                } else {
                    state = State::Char;
                    code_[i] = '\'';
                }
            } else if (c != '\n') {
                code_[i] = c;
            }
            break;

          case State::LineComment:
            if (c == '\n') {
                appendLineComment(pending, comment_text,
                                  comment_start_line);
                state = State::Normal;
            } else {
                comment_text += c;
            }
            break;

          case State::BlockComment:
            // Markers live in // comments only; block comments are
            // documentation and may *mention* markers as prose.
            if (c == '*' && next == '/') {
                state = State::Normal;
                ++i;
            } else {
                comment_text += c;
            }
            break;

          case State::String:
            if (c == '\\' && i + 1 < n) {
                literal_text += c;
                literal_text += next;
                ++i;
                if (next == '\n') {
                    ++line;
                    line_offsets_.push_back(i + 1);
                    code_[i] = '\n';
                }
            } else if (c == '"') {
                code_[i] = '"';
                literals_.push_back(
                    {literal_offset, literal_line, literal_text});
                state = State::Normal;
            } else if (c != '\n') {
                literal_text += c;
            }
            break;

          case State::Char:
            if (c == '\\' && i + 1 < n) {
                ++i;
            } else if (c == '\'') {
                code_[i] = '\'';
                state = State::Normal;
            }
            break;

          case State::RawString:
            if (c == ')' && raw_.compare(i, raw_delim.size(),
                                         raw_delim) == 0) {
                i += raw_delim.size() - 1;
                code_[i] = '"';
                literals_.push_back(
                    {literal_offset, literal_line, literal_text});
                state = State::Normal;
            } else if (c != '\n') {
                literal_text += c;
            }
            break;
        }
    }
    if (state == State::LineComment)
        appendLineComment(pending, comment_text, comment_start_line);
    flushLineComments(pending);

    tokens_ = TokenStream(code_);
    scopes_ = ScopeTree(tokens_);
    resolveGuardFields();
}

void
SourceFile::scanCMake()
{
    // CMake's lexical grammar is simple enough here: '#' starts a
    // comment outside a double-quoted argument.  Comments are
    // blanked so flag checks (-ffast-math) don't trip on prose;
    // bracket comments #[[...]] are rare and treated as line
    // comments, which errs toward scanning too much, not too little.
    code_.assign(raw_.size(), ' ');
    line_offsets_.push_back(0);

    bool in_string = false;
    bool in_comment = false;
    int line = 1;
    const size_t n = raw_.size();
    for (size_t i = 0; i < n; ++i) {
        const char c = raw_[i];
        if (c == '\n') {
            code_[i] = '\n';
            ++line;
            line_offsets_.push_back(i + 1);
            in_comment = false;
            in_string = false; // CMake strings don't span lines here
            continue;
        }
        if (in_comment)
            continue;
        if (c == '"' && (i == 0 || raw_[i - 1] != '\\'))
            in_string = !in_string;
        if (c == '#' && !in_string) {
            in_comment = true;
            continue;
        }
        code_[i] = c;
    }
    (void)line;
}

int
SourceFile::lineOf(size_t offset) const
{
    const auto it = std::upper_bound(line_offsets_.begin(),
                                     line_offsets_.end(), offset);
    return static_cast<int>(it - line_offsets_.begin());
}

const StringLiteral *
SourceFile::literalAtOrAfter(size_t offset) const
{
    for (const auto &lit : literals_) {
        if (lit.offset >= offset)
            return &lit;
    }
    return nullptr;
}

bool
SourceFile::suppressed(int line, const std::string &rule) const
{
    const auto it = suppressions_.find(line);
    return it != suppressions_.end() && it->second.count(rule) > 0;
}

std::string
SourceFile::layer() const
{
    static const std::string kPrefix = "src/";
    if (path_.rfind(kPrefix, 0) != 0)
        return "";
    const size_t start = kPrefix.size();
    const size_t slash = path_.find('/', start);
    if (slash == std::string::npos)
        return "";
    return path_.substr(start, slash - start);
}

bool
SourceFile::isHeader() const
{
    return path_.size() >= 3 &&
           path_.compare(path_.size() - 3, 3, ".hh") == 0;
}

const SourceFile *
SourceRepo::find(const std::string &rel_path) const
{
    for (const auto &f : files) {
        if (f.path() == rel_path)
            return &f;
    }
    return nullptr;
}

SourceRepo
loadRepo(const std::string &root)
{
    namespace fs = std::filesystem;

    SourceRepo repo;
    repo.root = root;

    const fs::path src = fs::path(root) / "src";
    fatal_if(!fs::is_directory(src),
             "gpuscale-lint: no src/ directory under %s",
             root.c_str());

    std::vector<fs::path> paths;
    for (const auto &entry : fs::recursive_directory_iterator(src)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        const std::string ext = entry.path().extension().string();
        if (ext == ".cc" || ext == ".hh" || ext == ".cmake" ||
            name == "CMakeLists.txt")
            paths.push_back(entry.path());
    }
    // Build flags can hide anywhere a CMakeLists lives, but fixture
    // trees under tests/ are deliberately bad inputs — so only the
    // checkout's own top-level lists join the scan.
    for (const char *extra :
         {"CMakeLists.txt", "tests/CMakeLists.txt",
          "bench/CMakeLists.txt"}) {
        const fs::path p = fs::path(root) / extra;
        if (fs::is_regular_file(p))
            paths.push_back(p);
    }
    std::sort(paths.begin(), paths.end());

    for (const auto &p : paths) {
        // gpuscale-lint: allow(fault-coverage): the lint tool reads
        // its own inputs; a source tree that vanishes mid-scan is a
        // fatal usage error, not a degradable I/O fault.
        std::ifstream is(p);
        fatal_if(!is, "gpuscale-lint: cannot read %s",
                 p.string().c_str());
        std::stringstream buffer;
        buffer << is.rdbuf();
        const std::string rel =
            fs::relative(p, root).generic_string();
        repo.files.emplace_back(rel, buffer.str(),
                                SourceFile::DeferScan{});
    }

    // Scanning (comment stripping, lexing, scope building) dominates
    // load time on a full checkout; files are independent, so fan
    // out across the pool.
    harness::parallelFor(repo.files.size(), [&repo](size_t i) {
        repo.files[i].ensureScanned();
    });
    return repo;
}

} // namespace analysis
} // namespace gpuscale
