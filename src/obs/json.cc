/**
 * @file
 * JSON writer and parser implementation.
 */

#include "json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <system_error>

#include "base/logging.hh"

namespace gpuscale {
namespace obs {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

JsonWriter::JsonWriter(std::ostream &os)
    : os_(os)
{
}

void
JsonWriter::preValue()
{
    panic_if(done_, "JsonWriter: document already complete");
    if (stack_.empty())
        return;
    Frame &top = stack_.back();
    panic_if(top.is_object && !key_pending_,
             "JsonWriter: value inside object requires key()");
    if (!top.is_object && top.count > 0)
        os_ << ',';
    ++top.count;
    key_pending_ = false;
}

JsonWriter &
JsonWriter::beginObject()
{
    preValue();
    os_ << '{';
    stack_.push_back(Frame{true, 0});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    panic_if(stack_.empty() || !stack_.back().is_object,
             "JsonWriter: endObject outside object");
    panic_if(key_pending_, "JsonWriter: endObject with dangling key");
    os_ << '}';
    stack_.pop_back();
    if (stack_.empty())
        done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    preValue();
    os_ << '[';
    stack_.push_back(Frame{false, 0});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    panic_if(stack_.empty() || stack_.back().is_object,
             "JsonWriter: endArray outside array");
    os_ << ']';
    stack_.pop_back();
    if (stack_.empty())
        done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    panic_if(stack_.empty() || !stack_.back().is_object,
             "JsonWriter: key() outside object");
    panic_if(key_pending_, "JsonWriter: consecutive key() calls");
    if (stack_.back().count > 0)
        os_ << ',';
    os_ << '"' << jsonEscape(k) << "\":";
    key_pending_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    preValue();
    os_ << '"' << jsonEscape(v) << '"';
    if (stack_.empty())
        done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    preValue();
    if (!std::isfinite(v)) {
        // JSON has no NaN/Inf; null keeps the document valid.
        os_ << "null";
    } else {
        // std::to_chars is locale-independent ("%g" under an
        // LC_NUMERIC locale with a comma decimal separator would emit
        // invalid JSON).  No precision argument: shortest
        // round-trippable form, so a parse of the emitted text
        // recovers the bitwise-identical double — the service's
        // resume proof compares classifications through this path.
        char buf[40];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::general);
        panic_if(res.ec != std::errc(),
                 "JsonWriter: double formatting failed");
        os_.write(buf, res.ptr - buf);
    }
    if (stack_.empty())
        done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    preValue();
    os_ << v;
    if (stack_.empty())
        done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(int64_t v)
{
    preValue();
    os_ << v;
    if (stack_.empty())
        done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<int64_t>(v));
}

JsonWriter &
JsonWriter::value(bool v)
{
    preValue();
    os_ << (v ? "true" : "false");
    if (stack_.empty())
        done_ = true;
    return *this;
}

JsonWriter &
JsonWriter::valueNull()
{
    preValue();
    os_ << "null";
    if (stack_.empty())
        done_ = true;
    return *this;
}

bool
JsonWriter::complete() const
{
    return done_ && stack_.empty();
}

const JsonValue *
JsonValue::find(const std::string &k) const
{
    if (type != Type::Object)
        return nullptr;
    const auto it = object.find(k);
    return it == object.end() ? nullptr : &it->second;
}

const JsonValue &
JsonValue::at(const std::string &k) const
{
    const JsonValue *v = find(k);
    panic_if(v == nullptr, "JsonValue: missing key '%s'", k.c_str());
    return *v;
}

namespace {

/**
 * Deepest nesting parseJson() accepts.  The parser recurses once per
 * level, and gpuscaled hands it untrusted request lines: without a
 * cap, a line of 50,000 '[' overflows a connection thread's stack.
 * The deepest document the repo writes (snapshots, manifests,
 * protocol frames) nests 4 levels.
 */
constexpr size_t kMaxDepth = 256;

/** Recursive-descent JSON parser over a string view. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("JSON parse error at offset " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const size_t len = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, len, lit) != 0)
            return false;
        pos_ += len;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        const char c = peek();
        if (c == '{' || c == '[') {
            if (++depth_ > kMaxDepth)
                fail("nesting deeper than " +
                     std::to_string(kMaxDepth) + " levels");
            JsonValue v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        if (c == '"') {
            JsonValue v;
            v.type = JsonValue::Type::String;
            v.str = parseString();
            return v;
        }
        if (c == 't' || c == 'f') {
            JsonValue v;
            v.type = JsonValue::Type::Bool;
            if (consumeLiteral("true"))
                v.boolean = true;
            else if (consumeLiteral("false"))
                v.boolean = false;
            else
                fail("bad literal");
            return v;
        }
        if (c == 'n') {
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue{};
        }
        return parseNumber();
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.type = JsonValue::Type::Object;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.object[key] = parseValue();
            skipWs();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return v;
            }
            fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.type = JsonValue::Type::Array;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue());
            skipWs();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return v;
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // Encode as UTF-8 (no surrogate-pair handling; the
                // telemetry emitters only escape control characters).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                fail("bad escape character");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            fail("expected a value");
        const std::string tok = text_.substr(start, pos_ - start);
        // std::from_chars always parses the C-locale (i.e. JSON)
        // number grammar; strtod would reject "1.5" under a
        // comma-decimal LC_NUMERIC locale.
        double d = 0.0;
        const auto res =
            std::from_chars(tok.data(), tok.data() + tok.size(), d);
        if (res.ec != std::errc() ||
            res.ptr != tok.data() + tok.size()) {
            fail("malformed number '" + tok + "'");
        }
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.number = d;
        return v;
    }

    const std::string &text_;
    size_t pos_ = 0;
    size_t depth_ = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace obs
} // namespace gpuscale
