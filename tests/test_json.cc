/**
 * @file
 * Tests for the JSON codec (common/json.hh): writer output reads back to
 * the same values, the strict reader rejects every malformed input in a
 * table plus every strict prefix of a valid document, and the writer's
 * line layout is valid JSON at any line depth.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hh"

namespace constable {
namespace {

using Kind = JsonValue::Kind;

TEST(Json, WriterReaderRoundTripsEscapes)
{
    const std::vector<std::string> strings = {
        "plain",
        "quote \" and backslash \\ and slash /",
        std::string("controls \x01\x1f\b\f\n\r\t end"),
        std::string("embedded \0 nul", 14),
        "utf-8 \xc3\xa9 \xf0\x9f\x98\x80",
        "",
    };
    for (size_t depth : { 0, 1, 3 }) {
        JsonWriter w(depth);
        w.beginObject().key("strings").beginArray();
        for (const std::string& s : strings)
            w.str(s);
        w.endArray();
        w.key("key with \"quotes\"\n").u64(7);
        w.key("max").u64(std::numeric_limits<uint64_t>::max());
        w.key("fixed").f64(2.0 / 3.0, 3);
        w.key("negative").f64(-1.5, 1);
        w.key("nan").f64(std::nan(""), 3);
        w.key("inf").f64(std::numeric_limits<double>::infinity(), 3);
        w.key("empty").beginObject().endObject();
        w.key("nested").beginArray().beginArray().endArray().endArray();
        w.endObject();
        std::string text = w.take();

        JsonValue doc;
        ASSERT_TRUE(parseJson(text, doc)) << text;
        ASSERT_EQ(doc.kind, Kind::Object);
        const JsonValue* arr = doc.find("strings");
        ASSERT_NE(arr, nullptr);
        ASSERT_EQ(arr->items.size(), strings.size());
        for (size_t i = 0; i < strings.size(); ++i)
            EXPECT_EQ(arr->items[i].str, strings[i]) << i;
        double v = 0;
        EXPECT_TRUE(doc.get("key with \"quotes\"\n", v));
        EXPECT_EQ(v, 7.0);
        EXPECT_TRUE(doc.get("max", v));
        EXPECT_EQ(v, 18446744073709551615.0);
        EXPECT_TRUE(doc.get("fixed", v));
        EXPECT_EQ(v, 0.667);
        EXPECT_TRUE(doc.get("negative", v));
        EXPECT_EQ(v, -1.5);
        EXPECT_EQ(doc.find("nan")->kind, Kind::Null);
        EXPECT_EQ(doc.find("inf")->kind, Kind::Null);
        EXPECT_EQ(doc.find("empty")->kind, Kind::Object);
        EXPECT_EQ(doc.find("nested")->items.at(0).kind, Kind::Array);
        // Control characters never reach the file raw.
        for (char c : text)
            EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20);
    }
}

TEST(Json, ReaderDecodesEveryEscape)
{
    JsonValue doc;
    ASSERT_TRUE(parseJson(
        R"(["\"\\\/\b\f\n\r\t", "\u0041\u00e9\u20AC", "\ud83d\ude00"])",
        doc));
    ASSERT_EQ(doc.items.size(), 3u);
    EXPECT_EQ(doc.items[0].str, "\"\\/\b\f\n\r\t");
    EXPECT_EQ(doc.items[1].str, "A\xc3\xa9\xe2\x82\xac");
    EXPECT_EQ(doc.items[2].str, "\xf0\x9f\x98\x80");
}

TEST(Json, ReaderAcceptsTheFullGrammar)
{
    JsonValue doc;
    ASSERT_TRUE(parseJson(
        " \t\r\n{\"a\" : [ true , false , null , -0 , 1.5e+2 , 2E-1 ,"
        " 10 ] , \"b\" : { } , \"a\" : 3 } \n",
        doc));
    const JsonValue* a = doc.find("a"); // first of the duplicate keys
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items.size(), 7u);
    EXPECT_TRUE(a->items[0].boolean);
    EXPECT_EQ(a->items[1].kind, Kind::Bool);
    EXPECT_FALSE(a->items[1].boolean);
    EXPECT_EQ(a->items[2].kind, Kind::Null);
    EXPECT_EQ(a->items[4].number, 150.0);
    EXPECT_EQ(a->items[5].number, 0.2);
    EXPECT_EQ(a->find("x"), nullptr); // not an object
    std::string s;
    EXPECT_FALSE(doc.get("a", s)); // wrong kind leaves out untouched
    EXPECT_TRUE(s.empty());
    ASSERT_TRUE(parseJson("\"top-level string\"", doc));
    EXPECT_EQ(doc.str, "top-level string");
}

TEST(Json, ReaderRejectsMalformedInput)
{
    const std::vector<std::string> bad = {
        "",
        "   ",
        "[1,]",
        "{\"a\":1,}",
        "[,1]",
        "\"unterminated",
        "\"bad escape \\x\"",
        "\"short \\u12\"",
        "\"lone high \\ud800\"",
        "\"lone low \\udc00\"",
        "\"high then other \\ud800\\u0041\"",
        std::string("\"raw control \x01\""),
        "\"raw newline \n\"",
        "NaN",
        "Infinity",
        "-Infinity",
        "[NaN]",
        "{\"x\":Infinity}",
        "1e999",
        "01",
        "1.",
        ".5",
        "+1",
        "-",
        "1e",
        "0x10",
        "{} x",
        "[1] ]",
        "{}{}",
        "[1 2]",
        "{\"a\" 1}",
        "{\"a\":}",
        "{a:1}",
        "{'a':1}",
        "tru",
        "nul",
        "True",
        std::string("[1]\0", 4),
        std::string(kJsonMaxDepth + 1, '[') +
            std::string(kJsonMaxDepth + 1, ']'),
    };
    for (const std::string& text : bad) {
        JsonValue doc;
        EXPECT_FALSE(parseJson(text, doc)) << "accepted: " << text;
    }
    JsonValue doc;
    EXPECT_TRUE(parseJson(std::string(kJsonMaxDepth, '[') +
                              std::string(kJsonMaxDepth, ']'),
                          doc));
}

TEST(Json, ReaderRejectsEveryStrictPrefix)
{
    const std::string text =
        "{\"s\":\"a\\\"b\\u00e9\\ud83d\\ude00\",\"n\":[-12.5e-3,0,true,"
        "false,null],\"o\":{\"k\":{}},\"e\":[]}";
    JsonValue doc;
    ASSERT_TRUE(parseJson(text, doc));
    for (size_t n = 0; n < text.size(); ++n)
        EXPECT_FALSE(parseJson(text.substr(0, n), doc)) << n;
}

} // namespace
} // namespace constable
