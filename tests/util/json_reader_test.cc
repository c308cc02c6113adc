/**
 * @file
 * util::JsonReader — the parser behind the tests' JSON checks. The
 * key contract: everything util::JsonWriter emits parses back, and
 * malformed input (a truncated file) reports through ok() instead of
 * throwing or aborting.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/json_reader.hh"
#include "util/json_writer.hh"

namespace rest::util
{

namespace
{

JsonValue
parsed(const std::string &text, bool expect_ok = true)
{
    JsonReader reader(text);
    JsonValue v = reader.parse();
    EXPECT_EQ(reader.ok(), expect_ok) << text;
    return v;
}

} // namespace

TEST(JsonReader, ParsesScalarsAndContainers)
{
    JsonValue v = parsed("{\"a\": 1, \"b\": [true, null, -2.5], "
                         "\"c\": \"text\"}");
    ASSERT_EQ(v.kind, JsonValue::Object);
    EXPECT_EQ(v.at("a").u64(), 1u);
    const auto &arr = v.at("b");
    ASSERT_EQ(arr.kind, JsonValue::Array);
    ASSERT_EQ(arr.items.size(), 3u);
    EXPECT_TRUE(arr.items[0].boolean);
    EXPECT_EQ(arr.items[1].kind, JsonValue::Null);
    EXPECT_EQ(arr.items[2].number, -2.5);
    EXPECT_EQ(v.at("c").str, "text");
    EXPECT_FALSE(v.has("missing"));
    EXPECT_EQ(v.at("missing").kind, JsonValue::Null);
}

TEST(JsonReader, RoundTripsWriterOutput)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.field("name", "sweep \"quoted\"\n");
        w.field("count", std::uint64_t(42));
        w.field("ratio", 0.125);
        w.key("list");
        w.beginArray();
        w.value(std::int64_t(-7));
        w.value(true);
        w.endArray();
        w.endObject();
    }
    JsonValue v = parsed(os.str());
    EXPECT_EQ(v.at("name").str, "sweep \"quoted\"\n");
    EXPECT_EQ(v.at("count").u64(), 42u);
    EXPECT_EQ(v.at("ratio").number, 0.125);
    ASSERT_EQ(v.at("list").items.size(), 2u);
    EXPECT_EQ(v.at("list").items[0].number, -7);
}

TEST(JsonReader, UnicodeEscapesDecodeToUtf8)
{
    // Control range (what JsonWriter emits as \u00XX).
    EXPECT_EQ(parsed("\"\\u0041\\u0009\"").str, "A\t");
    EXPECT_EQ(parsed("\"\\u0000x\"", true).str.size(), 2u);
    // Two-byte UTF-8: U+00E9 (é), U+03B1 (α).
    EXPECT_EQ(parsed("\"\\u00e9\"").str, "\xc3\xa9");
    EXPECT_EQ(parsed("\"\\u03B1\"").str, "\xce\xb1");
    // Three-byte UTF-8: U+20AC (€), U+FFFD.
    EXPECT_EQ(parsed("\"\\u20ac\"").str, "\xe2\x82\xac");
    EXPECT_EQ(parsed("\"\\uFFFD\"").str, "\xef\xbf\xbd");
    // Regression: the old decoder read only the LAST two hex digits,
    // so \u0041 ('A') came back as '\x41'... but \u4100 came back as
    // '\0'. The full code point must be honoured.
    EXPECT_EQ(parsed("\"\\u4e2d\"").str, "\xe4\xb8\xad"); // U+4E2D 中
}

TEST(JsonReader, UnicodeEscapesRoundTripThroughWriter)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.field("s", std::string("ctl\x01\x1f end"));
        w.endObject();
    }
    JsonValue v = parsed(os.str());
    EXPECT_EQ(v.at("s").str, "ctl\x01\x1f end");
}

TEST(JsonReader, BadUnicodeEscapesAreHardErrors)
{
    // Non-hex digits.
    parsed("\"\\u00zz\"", /*expect_ok=*/false);
    parsed("\"\\u12g4\"", /*expect_ok=*/false);
    // Truncated escape at end of input.
    parsed("\"\\u12", /*expect_ok=*/false);
    // Surrogate halves: rejected, not silently mangled.
    parsed("\"\\ud800\"", /*expect_ok=*/false);
    parsed("\"\\udfff\"", /*expect_ok=*/false);
    parsed("\"\\ud83d\\ude00\"", /*expect_ok=*/false);
}

TEST(JsonReader, MalformedInputSetsOkFalse)
{
    for (const char *bad : {"", "{", "[1, 2", "{\"a\": }",
                            "{\"a\" 1}", "tru", "\"unterminated",
                            "{\"a\": 1} trailing"})
        parsed(bad, /*expect_ok=*/false);
}

TEST(JsonReader, ReadJsonFileReportsMissingFiles)
{
    bool ok = true;
    JsonValue v = readJsonFile("/nonexistent/file.json", &ok);
    EXPECT_FALSE(ok);
    EXPECT_EQ(v.kind, JsonValue::Null);
}

} // namespace rest::util
