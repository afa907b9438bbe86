/**
 * @file
 * The repo's one JSON codec: strict flat-object JSON.
 *
 * Users: the compile-service JSONL protocol (`tqand` requests and
 * responses), the `tqan-sweep` JSON rows and BENCH_*.json rows
 * (written and read back by core/sweep.cpp, including campaign
 * checkpoint payloads), and the perfbench harness.
 *
 * The service reads one JSON object per line from untrusted bytes,
 * so the parser is deliberately strict and small rather than
 * general: one flat object of string / number / boolean / null
 * values, duplicate keys rejected, nothing after the closing brace.
 * Errors give the byte offset and, inside a value, the key being
 * read.  Numbers are kept as raw tokens and converted by the strict
 * full-consumption helpers below — a request field of "7junk" is an
 * error, never 7.
 *
 * Strings are byte-transparent.  jsonEscape() escapes only the quote,
 * the backslash and bytes below 0x20; every other byte, 0x7f and
 * bytes >= 0x80 included, is written as is, and the parser takes raw
 * bytes >= 0x80 back unchanged.  So valid UTF-8 in (RFC 8259 §8.1)
 * is valid UTF-8 out, and any string round-trips byte for byte.
 * \uXXXX escapes above 0x7f are rejected: nothing here writes them,
 * and decoding them would need a UTF-8 encoder for one spelling of
 * bytes the raw form already carries.
 */

#ifndef TQAN_SERVICE_JSON_H
#define TQAN_SERVICE_JSON_H

#include <cstdint>
#include <map>
#include <string>

namespace tqan {
namespace service {

/** One parsed JSON value of the flat protocol object. */
struct JsonValue
{
    enum class Kind { String, Number, Bool, Null };
    Kind kind = Kind::Null;
    /** Decoded string content (String) or the raw numeric token
     * exactly as it appeared (Number). */
    std::string text;
    bool boolean = false;

    bool operator==(const JsonValue &o) const
    {
        return kind == o.kind && text == o.text &&
               boolean == o.boolean;
    }
    bool operator!=(const JsonValue &o) const
    {
        return !(*this == o);
    }
};

/** Keys in parse order do not matter to the protocol; a map keeps
 * lookups simple and duplicate detection free. */
using JsonObject = std::map<std::string, JsonValue>;

/**
 * Parse one line holding exactly one flat JSON object.
 * @throws std::invalid_argument with a position on malformed input,
 *         nested arrays/objects, duplicate keys, or trailing bytes.
 */
JsonObject parseJsonObject(const std::string &line);

/** Escape a string for embedding in a JSON line: the quote, the
 * backslash and bytes below 0x20 only (see the file comment). */
std::string jsonEscape(const std::string &s);

/** @name Strict full-consumption numeric parses.
 * Return false unless the whole token is a valid, in-range value;
 * doubles must be finite (a "nan" latency or tolerance is garbage,
 * not data). @{ */
bool parseU64(const std::string &s, std::uint64_t *out);
bool parseI32(const std::string &s, int *out);
bool parseF64(const std::string &s, double *out);
/** @} */

} // namespace service
} // namespace tqan

#endif // TQAN_SERVICE_JSON_H
