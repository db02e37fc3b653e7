#include "support/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace longnail {
namespace json {

namespace {

/** Depth cap: hostile deeply nested documents must not overflow the
 * recursive-descent stack. */
constexpr int maxDepth = 64;

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    std::optional<Value>
    run(std::string *error)
    {
        std::optional<Value> v = parseValue(0);
        if (v) {
            skipWs();
            if (pos_ != text_.size())
                v = fail("trailing characters");
        }
        if (!v && error)
            *error = error_ + " at byte " + std::to_string(errorPos_);
        return v;
    }

  private:
    std::optional<Value>
    fail(const std::string &what)
    {
        // Keep the first (innermost) error.
        if (error_.empty()) {
            error_ = what;
            errorPos_ = pos_;
        }
        return std::nullopt;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    std::optional<Value>
    parseValue(int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
        case 'n':
            if (literal("null"))
                return Value();
            return fail("bad literal");
        case 't':
            if (literal("true"))
                return Value(true);
            return fail("bad literal");
        case 'f':
            if (literal("false"))
                return Value(false);
            return fail("bad literal");
        case '"':
            return parseString();
        case '[':
            return parseArray(depth);
        case '{':
            return parseObject(depth);
        default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            return fail("unexpected character");
        }
    }

    std::optional<Value>
    parseNumber()
    {
        size_t start = pos_;
        if (consume('-')) {
        }
        if (pos_ >= text_.size() || !isdigit(unsigned(text_[pos_])))
            return fail("bad number");
        // JSON forbids leading zeros: "0" is fine, "01" is not.
        if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
            isdigit(unsigned(text_[pos_ + 1])))
            return fail("bad number");
        while (pos_ < text_.size() && isdigit(unsigned(text_[pos_])))
            ++pos_;
        if (consume('.')) {
            if (pos_ >= text_.size() ||
                !isdigit(unsigned(text_[pos_])))
                return fail("bad number");
            while (pos_ < text_.size() &&
                   isdigit(unsigned(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() ||
                !isdigit(unsigned(text_[pos_])))
                return fail("bad number");
            while (pos_ < text_.size() &&
                   isdigit(unsigned(text_[pos_])))
                ++pos_;
        }
        std::string num = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double value = std::strtod(num.c_str(), &end);
        if (end != num.c_str() + num.size() || !std::isfinite(value))
            return fail("bad number");
        return Value(value);
    }

    std::optional<Value>
    parseString()
    {
        std::optional<std::string> s = parseRawString();
        if (!s)
            return std::nullopt;
        return Value(std::move(*s));
    }

    std::optional<std::string>
    parseRawString()
    {
        if (!consume('"')) {
            fail("expected string");
            return std::nullopt;
        }
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
                return std::nullopt;
            }
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                fail("raw control character in string");
                return std::nullopt;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
                return std::nullopt;
            }
            char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    if (pos_ >= text_.size()) {
                        fail("bad \\u escape");
                        return std::nullopt;
                    }
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else {
                        fail("bad \\u escape");
                        return std::nullopt;
                    }
                }
                // Encode the code point as UTF-8. Surrogate pairs are
                // passed through as two 3-byte sequences -- lossy for
                // astral-plane text but safe, and the protocol carries
                // ASCII compiler output in practice.
                if (code < 0x80) {
                    out += char(code);
                } else if (code < 0x800) {
                    out += char(0xC0 | (code >> 6));
                    out += char(0x80 | (code & 0x3F));
                } else {
                    out += char(0xE0 | (code >> 12));
                    out += char(0x80 | ((code >> 6) & 0x3F));
                    out += char(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                --pos_;
                fail("bad escape");
                return std::nullopt;
            }
        }
    }

    std::optional<Value>
    parseArray(int depth)
    {
        consume('[');
        Value arr = Value::array();
        skipWs();
        if (consume(']'))
            return arr;
        for (;;) {
            std::optional<Value> item = parseValue(depth + 1);
            if (!item)
                return std::nullopt;
            arr.push(std::move(*item));
            skipWs();
            if (consume(']'))
                return arr;
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    std::optional<Value>
    parseObject(int depth)
    {
        consume('{');
        Value obj = Value::object();
        skipWs();
        if (consume('}'))
            return obj;
        for (;;) {
            skipWs();
            std::optional<std::string> key = parseRawString();
            if (!key)
                return std::nullopt;
            skipWs();
            if (!consume(':'))
                return fail("expected ':'");
            std::optional<Value> value = parseValue(depth + 1);
            if (!value)
                return std::nullopt;
            obj.set(*key, std::move(*value));
            skipWs();
            if (consume('}'))
                return obj;
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
    std::string error_;
    size_t errorPos_ = 0;
};

void
emitInto(const Value &v, std::string &out)
{
    switch (v.kind()) {
    case Value::Kind::Null:
        out += "null";
        break;
    case Value::Kind::Bool:
        out += v.boolean() ? "true" : "false";
        break;
    case Value::Kind::Number: {
        double d = v.number();
        // Exact integers emit without a fraction (stable, greppable).
        if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(d));
            out += buf;
        } else {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", d);
            out += buf;
        }
        break;
    }
    case Value::Kind::String:
        out += '"';
        out += escape(v.str());
        out += '"';
        break;
    case Value::Kind::Array: {
        out += '[';
        bool first = true;
        for (const Value &item : v.items()) {
            if (!first)
                out += ',';
            first = false;
            emitInto(item, out);
        }
        out += ']';
        break;
    }
    case Value::Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &[key, value] : v.members()) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += escape(key);
            out += "\":";
            emitInto(value, out);
        }
        out += '}';
        break;
    }
    }
}

} // namespace

void
Value::set(const std::string &key, Value v)
{
    for (auto &[k, existing] : members_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members_.emplace_back(key, std::move(v));
}

const Value *
Value::find(const std::string &key) const
{
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

std::string
Value::getString(const std::string &key, const std::string &dflt) const
{
    const Value *v = find(key);
    return v && v->isString() ? v->str() : dflt;
}

double
Value::getNumber(const std::string &key, double dflt) const
{
    const Value *v = find(key);
    return v && v->isNumber() ? v->number() : dflt;
}

bool
Value::getBool(const std::string &key, bool dflt) const
{
    const Value *v = find(key);
    return v && v->isBool() ? v->boolean() : dflt;
}

std::string
Value::emit() const
{
    std::string out;
    emitInto(*this, out);
    return out;
}

std::optional<Value>
parse(const std::string &text, std::string *error)
{
    return Parser(text).run(error);
}

} // namespace json
} // namespace longnail
