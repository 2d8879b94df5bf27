/**
 * @file
 * Tests for the canonical JSON layer the wire protocol rests on:
 * strict parsing (RFC 8259 rejects stay rejected), canonical
 * serialization (same document, same bytes — the CLI↔server
 * byte-identity contract needs nothing less), and the protocol-field
 * accessors (asCount) that keep malformed counts from truncating to
 * something plausible.
 */

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "service/json.hh"

namespace mica::service
{
namespace
{

/** Parse or die, for inputs the test asserts are valid. */
JsonValue
parsed(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parseJson(text, &v, &err)) << text << ": " << err;
    return v;
}

std::string
reserialized(const std::string &text)
{
    return parsed(text).dump();
}

// ----------------------------------------------------------------------
// Canonical serialization.
// ----------------------------------------------------------------------

TEST(JsonTest, SerializesScalarsCanonically)
{
    EXPECT_EQ(JsonValue::null().dump(), "null");
    EXPECT_EQ(JsonValue::boolean(true).dump(), "true");
    EXPECT_EQ(JsonValue::boolean(false).dump(), "false");
    EXPECT_EQ(JsonValue::number(int64_t{0}).dump(), "0");
    EXPECT_EQ(JsonValue::number(int64_t{-7}).dump(), "-7");
    EXPECT_EQ(JsonValue::str("hi").dump(), "\"hi\"");
}

TEST(JsonTest, DoublesUseShortestRoundTripForm)
{
    EXPECT_EQ(JsonValue::number(0.1).dump(), "0.1");
    EXPECT_EQ(JsonValue::number(1.0 / 3.0).dump(),
              "0.3333333333333333");
    // The shortest form must still round-trip to the same bits.
    const double x = 0.123456789012345678;
    const JsonValue v = parsed(JsonValue::number(x).dump());
    EXPECT_EQ(v.asDouble(), x);
}

TEST(JsonTest, NanAndInfinityRenderAsNull)
{
    EXPECT_EQ(
        JsonValue::number(std::numeric_limits<double>::quiet_NaN())
            .dump(),
        "null");
    EXPECT_EQ(
        JsonValue::number(std::numeric_limits<double>::infinity())
            .dump(),
        "null");
}

TEST(JsonTest, DumpIsAFixedPointOfParseThenDump)
{
    // "-0" would reparse as the integer 0 and dump as "0", so both
    // zeros must dump as "0" for the canonical form to be stable.
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue::number(-0.0));
    const JsonValue docs[] = {
        JsonValue::number(-0.0),
        arr,
        JsonValue::number(5e-324),
        JsonValue::number(1e300),
        JsonValue::number(0.1),
        JsonValue::number(-12.5),
    };
    for (const JsonValue &doc : docs) {
        const std::string once = doc.dump();
        EXPECT_EQ(reserialized(once), once);
    }
    EXPECT_EQ(JsonValue::number(-0.0).dump(), "0");
    EXPECT_EQ(reserialized("-0.0"), "0");
    EXPECT_EQ(reserialized("[-0.0]"), "[0]");
}

TEST(JsonTest, UnderflowParsesAsSignedZeroOverflowRejects)
{
    const JsonValue tiny = parsed("1e-400");
    EXPECT_EQ(tiny.asDouble(), 0.0);
    EXPECT_FALSE(std::signbit(tiny.asDouble()));
    const JsonValue negTiny = parsed("-1e-400");
    EXPECT_EQ(negTiny.asDouble(), 0.0);
    EXPECT_TRUE(std::signbit(negTiny.asDouble()));
    EXPECT_EQ(negTiny.dump(), "0");
    EXPECT_EQ(reserialized("[-0.0e-400,1e-400]"), "[0,0]");

    for (const char *huge : {"1e400", "-1e400"}) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(parseJson(huge, &v, &err)) << huge;
        EXPECT_NE(err.find("number out of range"), std::string::npos)
            << err;
    }
}

TEST(JsonTest, ObjectMembersKeepInsertionOrder)
{
    JsonValue o = JsonValue::object();
    o.set("zebra", JsonValue::number(int64_t{1}));
    o.set("apple", JsonValue::number(int64_t{2}));
    o.set("mango", JsonValue::number(int64_t{3}));
    EXPECT_EQ(o.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
}

TEST(JsonTest, SerializationHasNoWhitespace)
{
    EXPECT_EQ(reserialized("  { \"a\" : [ 1 , 2 ] , \"b\" : null } "),
              "{\"a\":[1,2],\"b\":null}");
}

TEST(JsonTest, EscapesExactlyWhatJsonRequires)
{
    JsonValue v = JsonValue::str("a\"b\\c\n\t\x01z");
    EXPECT_EQ(v.dump(), "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
    // Multi-byte UTF-8 passes through untouched.
    EXPECT_EQ(JsonValue::str("\xc3\xa9").dump(), "\"\xc3\xa9\"");
}

TEST(JsonTest, LargeIntegersSurviveRoundTrip)
{
    // 2^53 + 1 is not representable as a double; the integer text
    // must survive parse → dump anyway.
    EXPECT_EQ(reserialized("9007199254740993"), "9007199254740993");
    EXPECT_EQ(reserialized("9223372036854775807"),
              "9223372036854775807");
    EXPECT_EQ(reserialized("-9223372036854775808"),
              "-9223372036854775808");
    // Above int64 range the value degrades to a (parseable) double
    // by design — wire counts never approach 2^63.
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parseJson("18446744073709551615", &v, &err)) << err;
}

// ----------------------------------------------------------------------
// Strict parsing.
// ----------------------------------------------------------------------

TEST(JsonTest, ParsesNestedDocuments)
{
    const JsonValue v =
        parsed("{\"a\":[1,2.5,\"x\"],\"b\":{\"c\":true,\"d\":null}}");
    ASSERT_TRUE(v.isObject());
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_EQ(a->items()[1].asDouble(), 2.5);
    const JsonValue *b = v.find("b");
    ASSERT_NE(b, nullptr);
    const JsonValue *c = b->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(c->asBool());
    EXPECT_TRUE(b->find("d")->isNull());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonTest, DecodesEscapesAndSurrogatePairs)
{
    EXPECT_EQ(parsed("\"\\u0041\\n\\/\"").asString(), "A\n/");
    // U+1F600 as a surrogate pair -> 4-byte UTF-8.
    EXPECT_EQ(parsed("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(JsonTest, RejectsMalformedInput)
{
    const char *bad[] = {
        "",                      // empty
        "{",                     // truncated object
        "[1,2",                  // truncated array
        "{\"a\":1,}",            // trailing comma
        "[1,,2]",                // empty element
        "\"abc",                 // unterminated string
        "\"\\q\"",               // bad escape
        "\"\\ud83d\"",           // unpaired high surrogate
        "01",                    // leading zero
        "1.",                    // digitless fraction
        "+1",                    // leading plus
        "nul",                   // truncated literal
        "True",                  // wrong case
        "{\"a\":1} x",           // trailing garbage
        "{'a':1}",               // single quotes
        "\"a\tb\"",              // raw control char in string
    };
    for (const char *text : bad) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(parseJson(text, &v, &err)) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
}

TEST(JsonTest, DepthGuardStopsRunawayNesting)
{
    std::string deep;
    for (int i = 0; i < 200; ++i)
        deep += '[';
    for (int i = 0; i < 200; ++i)
        deep += ']';
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson(deep, &v, &err));
    // A depth of 32 is fine.
    std::string ok;
    for (int i = 0; i < 32; ++i)
        ok += '[';
    for (int i = 0; i < 32; ++i)
        ok += ']';
    EXPECT_TRUE(parseJson(ok, &v, &err)) << err;
}

TEST(JsonTest, ErrorsNameTheByteOffset)
{
    JsonValue v;
    std::string err;
    ASSERT_FALSE(parseJson("{\"a\":tru}", &v, &err));
    EXPECT_NE(err.find("byte"), std::string::npos) << err;
}

// ----------------------------------------------------------------------
// Protocol-field accessors.
// ----------------------------------------------------------------------

TEST(JsonTest, AsCountAcceptsOnlyExactNonNegativeIntegers)
{
    EXPECT_EQ(parsed("5").asCount(), 5);
    EXPECT_EQ(parsed("0").asCount(), 0);
    EXPECT_EQ(parsed("5.0").asCount(), 5);
    EXPECT_EQ(parsed("-1").asCount(), -1);       // fallback
    EXPECT_EQ(parsed("2.5").asCount(), -1);
    EXPECT_EQ(parsed("\"5\"").asCount(), -1);
    EXPECT_EQ(parsed("null").asCount(), -1);
    EXPECT_EQ(parsed("1e300").asCount(7), 7);    // custom fallback
}

} // namespace
} // namespace mica::service
