/**
 * @file
 * Minimal JSON value model, parser and emitter for the compile-server
 * wire protocol (docs/compile-server.md).
 *
 * The subset is deliberately small but complete for RFC 8259
 * documents: null, booleans, numbers (stored as double, with an exact
 * integer fast path), strings with full escape handling, arrays and
 * objects. Objects preserve insertion order on emit so a round-tripped
 * reply is byte-stable; lookup is linear, which is fine for the
 * handful of keys a protocol frame carries.
 *
 * parse() never throws: malformed input yields std::nullopt and an
 * error description with byte offset, which the server turns into an
 * LN3101 protocol-error reply instead of dying (the hostile-input
 * tests in tests/serve/test_protocol.cc pin this).
 */

#ifndef LONGNAIL_SUPPORT_JSON_HH
#define LONGNAIL_SUPPORT_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace longnail {
namespace json {

class Value;

/** Object member list; insertion-ordered, linear lookup. */
using Members = std::vector<std::pair<std::string, Value>>;

class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Value() = default;
    Value(std::nullptr_t) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double n) : kind_(Kind::Number), num_(n) {}
    Value(int n) : kind_(Kind::Number), num_(double(n)) {}
    Value(int64_t n) : kind_(Kind::Number), num_(double(n)) {}
    Value(uint64_t n) : kind_(Kind::Number), num_(double(n)) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}

    static Value array() { Value v; v.kind_ = Kind::Array; return v; }
    static Value object() { Value v; v.kind_ = Kind::Object; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool boolean() const { return bool_; }
    double number() const { return num_; }
    const std::string &str() const { return str_; }
    const std::vector<Value> &items() const { return items_; }
    const Members &members() const { return members_; }

    /** Append to an array value. */
    void push(Value v) { items_.push_back(std::move(v)); }
    /** Set (or overwrite) an object member. */
    void set(const std::string &key, Value v);
    /** Member lookup; null when absent or not an object. */
    const Value *find(const std::string &key) const;

    // Typed member accessors with defaults (for protocol decoding).
    std::string getString(const std::string &key,
                          const std::string &dflt = "") const;
    double getNumber(const std::string &key, double dflt = 0.0) const;
    bool getBool(const std::string &key, bool dflt = false) const;

    /** Compact serialization (no whitespace, keys in stored order). */
    std::string emit() const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Value> items_;
    Members members_;
};

/**
 * Parse one JSON document. @p error (when non-null) receives a
 * human-readable description with byte offset on failure. Trailing
 * non-whitespace after the document is an error. Nesting depth is
 * capped (hostile inputs must not overflow the stack).
 */
std::optional<Value> parse(const std::string &text,
                           std::string *error = nullptr);

/**
 * Escape @p s for inclusion in a double-quoted JSON string. Inline so
 * that ln_obs, which ln_support links, can use it too.
 */
inline std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += "0123456789abcdef"[(c >> 4) & 0xf];
                out += "0123456789abcdef"[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace json
} // namespace longnail

#endif // LONGNAIL_SUPPORT_JSON_HH
