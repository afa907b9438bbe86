#include "service/json.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace tqan {
namespace service {

namespace {

struct Cursor
{
    const std::string &s;
    size_t i = 0;
    /** Key whose value is being read: errors name it, so a caller
     * reporting a bad row can point at the field. */
    const std::string *key = nullptr;

    [[noreturn]] void fail(size_t pos, const std::string &what) const
    {
        std::string where = "json: at byte " + std::to_string(pos);
        if (key)
            where += " (value of \"" + *key + "\")";
        throw std::invalid_argument(where + ": " + what);
    }

    bool done() const { return i >= s.size(); }
    char peek() const { return s[i]; }

    void skipWs()
    {
        while (i < s.size() &&
               (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' ||
                s[i] == '\n'))
            ++i;
    }

    char expect(char c)
    {
        if (done() || s[i] != c)
            fail(i, std::string("expected '") + c + "'");
        return s[i++];
    }
};

std::string
parseString(Cursor &c)
{
    c.expect('"');
    std::string out;
    while (true) {
        if (c.done())
            c.fail(c.i, "unterminated string");
        unsigned char ch = static_cast<unsigned char>(c.s[c.i]);
        if (ch == '"') {
            ++c.i;
            return out;
        }
        if (ch < 0x20)
            c.fail(c.i,
                   "raw control character in string (escape it)");
        if (ch != '\\') {
            out += static_cast<char>(ch);
            ++c.i;
            continue;
        }
        ++c.i;  // consume backslash
        if (c.done())
            c.fail(c.i, "dangling escape");
        char e = c.s[c.i++];
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
            if (c.i + 4 > c.s.size())
                c.fail(c.i, "truncated \\u escape");
            unsigned v = 0;
            for (int k = 0; k < 4; ++k) {
                char h = c.s[c.i + k];
                v <<= 4;
                if (h >= '0' && h <= '9')
                    v |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    v |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    v |= static_cast<unsigned>(h - 'A' + 10);
                else
                    c.fail(c.i + k, "bad hex digit in \\u escape");
            }
            if (v > 0x7f)
                c.fail(c.i, "\\u escape above 0x7f unsupported "
                            "(write the UTF-8 bytes raw)");
            c.i += 4;
            out += static_cast<char>(v);
            break;
          }
          default:
            c.fail(c.i - 1, std::string("unknown escape '\\") + e +
                                "'");
        }
    }
}

JsonValue
parseValue(Cursor &c)
{
    if (c.done())
        c.fail(c.i, "expected a value");
    JsonValue v;
    char ch = c.peek();
    if (ch == '"') {
        v.kind = JsonValue::Kind::String;
        v.text = parseString(c);
        return v;
    }
    if (ch == '{' || ch == '[')
        c.fail(c.i, "nested objects/arrays are not part of the "
                    "protocol");
    if (c.s.compare(c.i, 4, "true") == 0) {
        v.kind = JsonValue::Kind::Bool;
        v.boolean = true;
        c.i += 4;
        return v;
    }
    if (c.s.compare(c.i, 5, "false") == 0) {
        v.kind = JsonValue::Kind::Bool;
        v.boolean = false;
        c.i += 5;
        return v;
    }
    if (c.s.compare(c.i, 4, "null") == 0) {
        v.kind = JsonValue::Kind::Null;
        c.i += 4;
        return v;
    }
    // Number token: leading '-', digits, '.', exponent.  Collect the
    // plausible charset, then insist the whole token converts.
    size_t start = c.i;
    while (!c.done()) {
        char n = c.peek();
        if ((n >= '0' && n <= '9') || n == '-' || n == '+' ||
            n == '.' || n == 'e' || n == 'E')
            ++c.i;
        else
            break;
    }
    if (c.i == start)
        c.fail(start, "expected a value");
    v.kind = JsonValue::Kind::Number;
    v.text = c.s.substr(start, c.i - start);
    double d;
    if (!parseF64(v.text, &d))
        c.fail(start, "bad number '" + v.text + "'");
    return v;
}

} // namespace

JsonObject
parseJsonObject(const std::string &line)
{
    Cursor c{line};
    c.skipWs();
    c.expect('{');
    JsonObject obj;
    c.skipWs();
    if (!c.done() && c.peek() == '}') {
        ++c.i;
    } else {
        while (true) {
            c.skipWs();
            size_t keyAt = c.i;
            std::string key = parseString(c);
            if (obj.find(key) != obj.end())
                c.fail(keyAt, "duplicate key \"" + key + "\"");
            c.key = &key;
            c.skipWs();
            c.expect(':');
            c.skipWs();
            JsonValue v = parseValue(c);
            c.skipWs();
            if (c.done())
                c.fail(c.i, "unterminated object");
            char sep = c.peek();
            if (sep == ',')
                ++c.i;
            else
                c.expect('}');
            c.key = nullptr;
            obj.emplace(std::move(key), std::move(v));
            if (sep != ',')
                break;
        }
    }
    c.skipWs();
    if (!c.done())
        c.fail(c.i, "trailing bytes after object");
    return obj;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (unsigned char ch : s) {
        switch (ch) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (ch < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += static_cast<char>(ch);
            }
        }
    }
    return out;
}

bool
parseU64(const std::string &s, std::uint64_t *out)
{
    if (s.empty())
        return false;
    for (unsigned char ch : s)
        if (!std::isdigit(ch))
            return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

bool
parseI32(const std::string &s, int *out)
{
    if (s.empty())
        return false;
    size_t k = (s[0] == '-') ? 1 : 0;
    if (k == s.size())
        return false;
    for (size_t i = k; i < s.size(); ++i)
        if (!std::isdigit(static_cast<unsigned char>(s[i])))
            return false;
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || errno == ERANGE ||
        v < INT_MIN || v > INT_MAX)
        return false;
    *out = static_cast<int>(v);
    return true;
}

bool
parseF64(const std::string &s, double *out)
{
    // Decimal spellings only: strtod alone would also take leading
    // blanks, hex floats and "infinity".
    if (s.empty() ||
        s.find_first_not_of("0123456789+-.eE") != std::string::npos)
        return false;
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

} // namespace service
} // namespace tqan
