/**
 * @file
 * Tests of the strict JSONL protocol parser: flat objects only,
 * duplicate keys and trailing bytes rejected, numbers validated as
 * whole tokens (the repo-wide no-prefix-parse convention).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "service/json.h"

using namespace tqan::service;

TEST(JsonParse, ReadsAFlatObject)
{
    JsonObject o = parseJsonObject(
        "{\"s\":\"hi\\n\",\"n\":-1.5e3,\"b\":true,\"z\":null}");
    EXPECT_EQ(o.at("s").kind, JsonValue::Kind::String);
    EXPECT_EQ(o.at("s").text, "hi\n");
    EXPECT_EQ(o.at("n").kind, JsonValue::Kind::Number);
    EXPECT_EQ(o.at("n").text, "-1.5e3");
    EXPECT_TRUE(o.at("b").boolean);
    EXPECT_EQ(o.at("z").kind, JsonValue::Kind::Null);
    EXPECT_TRUE(parseJsonObject("{}").empty());
    EXPECT_TRUE(parseJsonObject("  { }  ").empty());
}

TEST(JsonParse, RejectsMalformedInput)
{
    for (const char *bad : {
             "",
             "{",
             "{\"a\":1",
             "{\"a\":1}x",                  // trailing bytes
             "{\"a\":1,\"a\":2}",           // duplicate key
             "{\"a\":{\"b\":1}}",           // nested object
             "{\"a\":[1,2]}",               // nested array
             "{\"a\":1x}",                  // junk-tailed number
             "{\"a\":tru}",
             "{\"a\":'x'}",
             "{\"a\":\"\\q\"}",             // unknown escape
             "{\"a\":\"\\u00ff\"}",         // non-ASCII escape
             "{\"a\":1,}",
             "{a:1}",
         }) {
        EXPECT_THROW(parseJsonObject(bad), std::invalid_argument)
            << "accepted: " << bad;
    }
}

TEST(JsonParse, EscapeRoundTrip)
{
    std::string raw = "a\"b\\c\nd\te\x01f";
    JsonObject o =
        parseJsonObject("{\"k\":\"" + jsonEscape(raw) + "\"}");
    EXPECT_EQ(o.at("k").text, raw);

    // Bytes >= 0x80 pass through unescaped both ways, so UTF-8 stays
    // UTF-8 (and arbitrary high bytes still round-trip).
    const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x98\x80";
    const std::string high = std::string("x") + '\x80' + '\xff';
    EXPECT_EQ(jsonEscape(utf8), utf8);
    EXPECT_EQ(jsonEscape(high), high);
    o = parseJsonObject("{\"k\":\"" + jsonEscape(utf8 + high) + "\"}");
    EXPECT_EQ(o.at("k").text, utf8 + high);
}

TEST(JsonNumbers, StrictFullConsumptionParses)
{
    std::uint64_t u = 0;
    int i = 0;
    double d = 0.0;
    EXPECT_TRUE(parseU64("184467", &u));
    EXPECT_FALSE(parseU64("7junk", &u));
    EXPECT_FALSE(parseU64("-7", &u));
    EXPECT_FALSE(parseU64("7.5", &u));
    EXPECT_FALSE(parseU64("99999999999999999999999", &u));
    EXPECT_TRUE(parseI32("-42", &i));
    EXPECT_FALSE(parseI32("42x", &i));
    EXPECT_FALSE(parseI32("4e9", &i));
    EXPECT_TRUE(parseF64("-1.5e-3", &d));
    EXPECT_FALSE(parseF64("1.5x", &d));
    EXPECT_FALSE(parseF64("nan", &d));
    EXPECT_FALSE(parseF64("inf", &d));
    EXPECT_FALSE(parseF64("0x1p3", &d));  // decimal spellings only
    EXPECT_FALSE(parseF64(" 1.5", &d));
}
