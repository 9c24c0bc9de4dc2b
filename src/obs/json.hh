/**
 * @file
 * Minimal JSON support for the telemetry subsystem.
 *
 * Two halves:
 *  - JsonWriter: a streaming writer that handles escaping, nesting,
 *    and comma placement, used by the metrics snapshot, the trace
 *    emitter, and the run-manifest writer.
 *  - parseJson(): a small recursive-descent parser producing a
 *    JsonValue DOM, so tests (and the classify path) can validate
 *    emitted artifacts without an external dependency.
 *
 * Deliberately not a general-purpose JSON library: no comments, no
 * NaN/Inf (written as null), numbers are doubles.
 */

#ifndef GPUSCALE_OBS_JSON_HH
#define GPUSCALE_OBS_JSON_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace gpuscale {
namespace obs {

/** Escape a string's contents for inclusion between JSON quotes. */
std::string jsonEscape(const std::string &s);

/**
 * Streaming JSON writer.
 *
 * Usage:
 *   JsonWriter w(os);
 *   w.beginObject().key("n").value(3).key("xs").beginArray()
 *       .value(1.5).endArray().endObject();
 *
 * Nesting and commas are tracked internally; misuse (a value where a
 * key is required, unbalanced end calls) is a panic, since the writer
 * is only driven by gpuscale code.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os);

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be inside an object. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);
    JsonWriter &valueNull();

    /** True once a single complete top-level value has been written. */
    bool complete() const;

  private:
    /** Called before any value/beginX: commas and key bookkeeping. */
    void preValue();

    struct Frame {
        bool is_object = false;
        size_t count = 0;
    };

    std::ostream &os_;
    std::vector<Frame> stack_;
    bool key_pending_ = false;
    bool done_ = false;
};

/** A parsed JSON document node. */
struct JsonValue {
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &k) const;

    /** find() that panics when the key is missing. */
    const JsonValue &at(const std::string &k) const;
};

/**
 * Parse a complete JSON document.  Nesting deeper than 256 levels is
 * malformed: the parser recurses per level, and daemon request frames
 * are untrusted.
 *
 * @throw std::runtime_error on malformed input (with offset info).
 */
JsonValue parseJson(const std::string &text);

} // namespace obs
} // namespace gpuscale

#endif // GPUSCALE_OBS_JSON_HH
