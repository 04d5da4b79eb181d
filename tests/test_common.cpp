/**
 * @file
 * Unit tests for the common utilities: RNG determinism and
 * distributions, statistics (summary, geomean, Pearson, Spearman),
 * table rendering, CSV quoting, and FlagSet parsing edge cases.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/flags.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace bt {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, NextBoundedRespectsBound)
{
    Rng rng(9);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, NextBoundedCoversAllResidues)
{
    Rng rng(11);
    std::array<int, 5> seen{};
    for (int i = 0; i < 2000; ++i)
        ++seen[rng.nextBounded(5)];
    for (int count : seen)
        EXPECT_GT(count, 0);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sumsq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.nextGaussian();
        sum += g;
        sumsq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(Rng, LogNormalFactorCentersNearOne)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextLogNormalFactor(0.02);
    // E[exp(sigma N)] = exp(sigma^2/2) ~ 1.0002 for sigma = 0.02.
    EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(Rng, HashCombineMixes)
{
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
    EXPECT_NE(hashCombine(0, 0), 0u);
    EXPECT_NE(hashCombine(1, 2), hashCombine(1, 3));
}

TEST(Stats, SummaryBasics)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    const Summary s = summarize(xs);
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.mean, 2.5);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 4.0);
    EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, SummaryEmptyAndSingle)
{
    EXPECT_EQ(summarize({}).count, 0u);
    const std::vector<double> one{42.0};
    const Summary s = summarize(one);
    EXPECT_DOUBLE_EQ(s.mean, 42.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, GeomeanKnownValues)
{
    const std::vector<double> xs{1.0, 4.0};
    EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
    const std::vector<double> ys{2.0, 2.0, 2.0};
    EXPECT_NEAR(geomean(ys), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, PearsonPerfectAndInverse)
{
    const std::vector<double> xs{1, 2, 3, 4, 5};
    const std::vector<double> ys{2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
    const std::vector<double> zs{10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, PearsonNoVarianceIsZero)
{
    const std::vector<double> xs{1, 2, 3};
    const std::vector<double> flat{5, 5, 5};
    EXPECT_DOUBLE_EQ(pearson(xs, flat), 0.0);
    EXPECT_DOUBLE_EQ(pearson(flat, xs), 0.0);
}

TEST(Stats, PearsonKnownValue)
{
    // Hand-computed small example.
    const std::vector<double> xs{1, 2, 3, 4};
    const std::vector<double> ys{1, 3, 2, 5};
    // sxy = 5.5, sxx = 5, syy = 8.75 -> r = 5.5 / sqrt(43.75).
    const double r = pearson(xs, ys);
    EXPECT_NEAR(r, 5.5 / std::sqrt(43.75), 1e-12);
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "2.5"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    // Header line padded to the widest cell.
    EXPECT_NE(out.find("name         value"), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(1.0, 0), "1");
    EXPECT_EQ(Table::num(2.5, 3), "2.500");
}

TEST(Csv, WritesQuotedCells)
{
    const std::string path = "/tmp/bt_test_csv.csv";
    {
        CsvWriter csv(path, {"a", "b"});
        ASSERT_TRUE(csv.ok());
        csv.addRow({"plain", "has,comma"});
        csv.addRow({"has\"quote", "line\nbreak"});
    }
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    EXPECT_NE(text.find("a,b"), std::string::npos);
    EXPECT_NE(text.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(text.find("\"has\"\"quote\""), std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// FlagSet edge cases.

/** argv adapter: FlagSet::parse wants mutable char** like main's. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : strings_(std::move(args))
    {
        for (auto& s : strings_)
            ptrs_.push_back(s.data());
    }
    int argc() const { return static_cast<int>(ptrs_.size()); }
    char** argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char*> ptrs_;
};

TEST(Json, EscapesQuotesBackslashesAndEveryControlByte)
{
    std::string raw = "q\"b\\";
    for (int c = 0; c < 0x20; ++c)
        raw += static_cast<char>(c);
    raw += "\x7f\xc3\xa9 end"; // DEL and UTF-8 pass through

    std::ostringstream os;
    json::Writer(os).value(raw);
    EXPECT_EQ(os.str(),
              "\"q\\\"b\\\\"
              "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
              "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
              "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
              "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
              "\x7f\xc3\xa9 end\"");
    // Every byte string comes back from the reader as it went in.
    const auto back = json::parse(os.str());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->text, raw);

    // Well-formed 2-, 3- and 4-byte text, at the edges of each form,
    // round-trips byte for byte; each byte of ill-formed UTF-8 (a stray
    // continuation, 0xC0, 0xFF, an overlong form, an encoded surrogate,
    // a truncated 4-byte sequence) is written as U+FFFD, so the output
    // still parses.
    const std::string fffd = "\xef\xbf\xbd";
    const std::pair<std::string, std::string> utf8_rows[] = {
        {"\xc2\x80\xdf\xbf", "\xc2\x80\xdf\xbf"},
        {"\xe0\xa0\x80\xed\x9f\xbf\xef\xbf\xbf",
         "\xe0\xa0\x80\xed\x9f\xbf\xef\xbf\xbf"},
        {"\xf0\x90\x80\x80\xf4\x8f\xbf\xbf",
         "\xf0\x90\x80\x80\xf4\x8f\xbf\xbf"},
        {"a\x80" "b", "a" + fffd + "b"},
        {"\xc0\xaf", fffd + fffd},
        {"\xff", fffd},
        {"\xe0\x80\xaf", fffd + fffd + fffd},
        {"\xed\xa0\x80", fffd + fffd + fffd},
        {"\xf0\x9f\x98" "!", fffd + fffd + fffd + "!"},
    };
    for (const auto& [in, want] : utf8_rows) {
        std::ostringstream w;
        json::Writer(w).beginArray().value(in).endArray();
        const auto v = json::parse(w.str());
        ASSERT_TRUE(v.has_value()) << w.str();
        EXPECT_EQ(v->items.at(0).text, want) << w.str();
    }

    std::ostringstream plain;
    json::Writer(plain).beginArray().value("plain").value("").endArray();
    EXPECT_EQ(plain.str(), "[\"plain\",\"\"]");

    // Separators are the writer's; integers exact; doubles as %.17g.
    std::ostringstream all;
    json::Writer w(all);
    w.beginObject().member("u", ~std::uint64_t{0});
    w.member("i", std::numeric_limits<std::int64_t>::min());
    w.member("d", 0.1).member("whole", 1500.0);
    w.member("nan", std::nan("")).member("b", false);
    w.key("a").beginArray().beginObject().endObject();
    w.beginArray().endArray().value(3).endArray().endObject();
    EXPECT_EQ(all.str(),
              R"({"u":18446744073709551615,"i":-9223372036854775808,)"
              R"("d":0.10000000000000001,"whole":1500,"nan":null,)"
              R"("b":false,"a":[{},[],3]})");
}

TEST(Json, ReaderDecodesEveryKindAndEscape)
{
    const auto v = json::parse(
        " {\"n\": null, \"t\": true, \"f\": false, \"num\": -12.5e-1,"
        " \"big\": 18446744073709551615, \"s\": \"a\\\"\\\\\\/\\b\\f\\n"
        "\\r\\t\\u00e9\\ud83d\\ude00\", \"arr\": [1, [], {}]}\r\n");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->members.front().name, "n"); // document order
    EXPECT_EQ(v->at("n").kind, json::Value::Kind::Null);
    EXPECT_TRUE(v->at("t").boolean);
    EXPECT_EQ(v->at("f").kind, json::Value::Kind::Bool);
    EXPECT_FALSE(v->at("f").boolean);
    EXPECT_EQ(v->at("num").number, -1.25);
    EXPECT_EQ(v->at("num").exactUnsigned(), std::nullopt);
    // Exact where a double would round 2^64 - 1 up to 2^64.
    EXPECT_EQ(v->at("big").exactUnsigned(), ~std::uint64_t{0});
    EXPECT_EQ(json::parse("18446744073709551616")->exactUnsigned(),
              std::nullopt);
    EXPECT_EQ(v->at("s").text, "a\"\\/\b\f\n\r\t\xc3\xa9\xf0\x9f\x98\x80");
    ASSERT_EQ(v->at("arr").items.size(), 3u);
    EXPECT_EQ(v->at("arr").items[2].kind, json::Value::Kind::Object);
}

TEST(Json, ReaderRefusesWhatRfc8259Refuses)
{
    for (const char* text :
         {"", "{} {}", "{\"a\": +7}", "[01]", "[1.]", "[.5]", "[1e]",
          "[1-2]", "[1..5]", "[tru]", "[1,]", "{\"a\" 1}", "{\"a\": 1,}",
          "{'a': 1}", "[\"tab\there\"]", "[\"bad \\x escape\"]",
          "[\"\\u12\"]", "[\"\\ud83d\"]", "[\"\\ude00\"]",
          "[\"unterminated]", "[1e400]", "\v[]"}) {
        json::Error err;
        EXPECT_FALSE(json::parse(text, err).has_value()) << text;
        EXPECT_FALSE(err.message.empty()) << text;
    }

    // Ill-formed UTF-8 (RFC 8259 section 8.1) is refused at the first
    // byte of its sequence, here always byte 2: stray continuation
    // bytes, bytes no sequence may hold, overlong forms, encoded
    // surrogates, code points past U+10FFFF and truncated sequences.
    json::Error err;
    for (const char* text :
         {"[\"\x80\"]", "[\"\xbf\"]", "[\"\xc0\x80\"]", "[\"\xc1\xbf\"]",
          "[\"\xf5\x80\x80\x80\"]", "[\"\xff\"]", "[\"\xfe\"]",
          "[\"\xe0\x80\x80\"]", "[\"\xe0\x9f\xbf\"]",
          "[\"\xf0\x8f\xbf\xbf\"]", "[\"\xed\xa0\x80\"]",
          "[\"\xed\xbf\xbf\"]", "[\"\xf4\x90\x80\x80\"]", "[\"\xc3\"]",
          "[\"\xe2\x82\"]", "[\"\xf0\x9f\x98\"]", "[\"\xc3\x28\"]",
          "[\"\xe2\x28\xa1\"]", "{\"\xff\": 1}", "[\"\xc3"}) {
        EXPECT_FALSE(json::parse(text, err).has_value()) << text;
        EXPECT_EQ(err.offset, 2U) << text;
        EXPECT_NE(err.message.find("UTF-8"), std::string::npos) << text;
    }
    // Well-formed 2-, 3- and 4-byte text, at the edges of each form,
    // still decodes byte for byte.
    for (const char* text :
         {"\xc2\x80", "\xc3\xa9", "\xdf\xbf", "\xe0\xa0\x80", "\xe2\x82\xac",
          "\xed\x9f\xbf", "\xee\x80\x80", "\xef\xbf\xbf", "\xf0\x90\x80\x80",
          "\xf0\x9f\x98\x80", "\xf4\x8f\xbf\xbf",
          "a\xc3\xa9" "b\xe2\x82\xac" "c"}) {
        std::string doc = "[\"";
        doc.append(text).append("\"]");
        const auto v = json::parse(doc);
        ASSERT_TRUE(v.has_value()) << text;
        EXPECT_EQ(v->items.at(0).text, text);
    }

    // Duplicate members are refused at the repeated name, not merged.
    const std::string dup = R"({"x":[{"a":1}],"y":2,"x":[]})";
    EXPECT_FALSE(json::parse(dup, err).has_value());
    EXPECT_EQ(err.message, "duplicate member \"x\"");
    EXPECT_EQ(err.offset, dup.rfind("\"x\""));
    EXPECT_TRUE(json::parse(R"([{"x":1},{"x":2}])").has_value());

    // Nesting is bounded: an error, never a stack overflow.
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_TRUE(json::parse(nested(json::kMaxDepth)).has_value());
    EXPECT_FALSE(json::parse(nested(json::kMaxDepth + 1), err));
    EXPECT_EQ(err.offset, static_cast<std::size_t>(json::kMaxDepth));
    EXPECT_FALSE(json::parse(std::string(100000, '[')).has_value());
}

TEST(Flags, ParsesSwitchesAndValues)
{
    bool sw = false;
    std::string name = "default";
    int k = 0;
    double f = 0.0;
    FlagSet flags("prog");
    flags.flag("--switch", &sw, "a switch");
    flags.value("--name", &name, "NAME", "a string");
    flags.value("--k", &k, "K", "an int");
    flags.value("--f", &f, "F", "a double");

    Argv argv({"prog", "--switch", "--name", "x", "--k", "7", "--f",
               "0.5"});
    EXPECT_TRUE(flags.parse(argv.argc(), argv.argv()));
    EXPECT_TRUE(sw);
    EXPECT_EQ(name, "x");
    EXPECT_EQ(k, 7);
    EXPECT_DOUBLE_EQ(f, 0.5);
}

TEST(Flags, UnknownFlagFails)
{
    bool sw = false;
    FlagSet flags("prog");
    flags.flag("--known", &sw, "known");
    Argv argv({"prog", "--unknown"});
    EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, MissingValueAtEndOfLineFails)
{
    std::string name;
    FlagSet flags("prog");
    flags.value("--name", &name, "NAME", "a string");
    Argv argv({"prog", "--name"});
    EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, MalformedNumberFails)
{
    int k = 0;
    FlagSet flags("prog");
    flags.value("--k", &k, "K", "an int");
    Argv bad({"prog", "--k", "12x"});
    EXPECT_FALSE(flags.parse(bad.argc(), bad.argv()));
    Argv empty({"prog", "--k", ""});
    EXPECT_FALSE(flags.parse(empty.argc(), empty.argv()));
}

TEST(Flags, HelpReturnsFalse)
{
    FlagSet flags("prog");
    Argv argv({"prog", "--help"});
    EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, DuplicateRegistrationPanics)
{
    FlagSet flags("prog");
    bool a = false;
    bool b = false;
    flags.flag("--twice", &a, "first registration");
    EXPECT_DEATH_IF_SUPPORTED(
        flags.flag("--twice", &b, "second registration"),
        "duplicate flag registration");
}

TEST(Flags, SwitchAndValueCombineLikeCheckPlusJson)
{
    // bt_explorer composes `--check` (a switch) with `--json FILE` (a
    // value); both must land regardless of order.
    for (const bool check_first : {true, false}) {
        bool check = false;
        std::string json_file;
        FlagSet flags("bt_explorer");
        flags.flag("--check", &check, "run the checker");
        flags.value("--json", &json_file, "FILE", "report file");
        Argv argv(check_first
                      ? std::vector<std::string>{"bt_explorer",
                                                 "--check", "--json",
                                                 "out.json"}
                      : std::vector<std::string>{"bt_explorer",
                                                 "--json", "out.json",
                                                 "--check"});
        EXPECT_TRUE(flags.parse(argv.argc(), argv.argv()));
        EXPECT_TRUE(check);
        EXPECT_EQ(json_file, "out.json");
    }
}

} // namespace
} // namespace bt
