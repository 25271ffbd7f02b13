/**
 * @file
 * Differential tests of the number <-> text layer against the C
 * library references it must match byte for byte: formatDouble
 * against snprintf("%.*g", max(6, shortest)) over seeded doubles of
 * every class, and parseIntText / parseDoubleText against whole-string
 * std::stoll / std::stod over a seeded mutation corpus (verdict and
 * bit-exact value, sign of zero included); and the CSV cell grammar:
 * the row appenders, and the splitter as their inverse.
 */

#include <algorithm>
#include <bit>
#include <charconv>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/format.h"
#include "common/parse.h"
#include "common/rng.h"

namespace diva
{
namespace
{

/**
 * Smallest digit count p such that some p-digit decimal parses back to
 * v (finite v): printf's correctly rounded p digits, or one unit above
 * or below them in the last place. The neighbours matter for exact
 * powers of two, whose rounding interval is half as wide below v as
 * above it, so the nearest p-digit decimal can miss where the next one
 * up parses back (2^-24 at 16 digits).
 */
int
shortestPrecision(double v)
{
    char buf[64];
    for (int p = 1; p < 17; ++p) {
        std::snprintf(buf, sizeof(buf), "%.*e", p - 1, std::fabs(v));
        const char *e = std::strchr(buf, 'e');
        std::string digits;
        for (const char *c = buf; c != e; ++c)
            if (*c != '.')
                digits += *c;
        const long long m = std::stoll(digits);
        const int exp = std::atoi(e + 1) - (p - 1);
        for (const long long cand : {m - 1, m, m + 1}) {
            // Appended piecewise: gcc 12's -Wrestrict misfires on
            // `"-" + std::string&&` at -O2.
            std::string text = std::signbit(v) ? "-" : "";
            text += std::to_string(cand);
            text += 'e';
            text += std::to_string(exp);
            if (std::strtod(text.c_str(), nullptr) == v)
                return p;
        }
    }
    return 17;
}

/** The historical formatter: snprintf at the shortest precision. */
std::string
referenceFormat(double v, int shortest)
{
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v < 0.0 ? "-inf" : "inf";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", shortest < 6 ? 6 : shortest,
                  v);
    return buf;
}

/** The shortest round-trip form, as std::to_chars gives it. */
std::string
shortestText(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::scientific);
    return std::string(buf, res.ptr);
}

/** Digits of the shortest round-trip form. */
int
shortestDigits(double v)
{
    int digits = 0;
    for (const char c : shortestText(v)) {
        if (c == 'e')
            break;
        digits += c >= '0' && c <= '9';
    }
    return digits;
}

/** Every power of two, both signs, subnormals included. */
std::vector<double>
powersOfTwo()
{
    std::vector<double> out;
    for (int k = -1074; k <= 1023; ++k) {
        out.push_back(std::ldexp(1.0, k));
        out.push_back(-out.back());
    }
    return out;
}

/** Seeded doubles of every class the emitters see, plus the edges. */
std::vector<double>
doubleCorpus(std::size_t n)
{
    std::vector<double> out = {
        0.0,        -0.0,         DBL_MIN,     -DBL_MIN,
        DBL_MAX,    -DBL_MAX,     DBL_TRUE_MIN, -DBL_TRUE_MIN,
        std::nan(""), HUGE_VAL,   -HUGE_VAL,   0.1,
        1e-4,       9.9999e-5,    1e-5,        123456.0,
        999999.5,   1e6,          1e15,        1e16,
        1e17,       0.3333333333333333, 2.5,   86400.0,
        // Subnormals whose shortest form has fewer than 6 digits:
        // %.6g pads them with digits the shortest form drops.
        1e-320,     2.5e-315,     1e-310,      4e-323,
        1.5e-322,   1.2345e-310,
    };
    // 5, 6 and 7 shortest digits (P = 6, 6, 7) at decimal exponents
    // -5, -4, P-1 and P: both sides of each %g layout switch.
    for (const char *digits : {"1.2345", "1.23456", "1.234567"}) {
        const int p = std::max(6, int(std::strlen(digits)) - 1);
        for (const int x : {-5, -4, p - 1, p}) {
            const std::string text =
                std::string(digits) + "e" + std::to_string(x);
            out.push_back(std::strtod(text.c_str(), nullptr));
            out.push_back(-out.back());
        }
    }
    Rng rng(20221001);
    while (out.size() < n) {
        const std::uint64_t bits = rng.next();
        switch (rng.uniformInt(6)) {
          case 0: // any bit pattern: nan, inf and subnormals included
            out.push_back(std::bit_cast<double>(bits));
            break;
          case 1: // subnormal
            out.push_back(std::bit_cast<double>(
                (bits & 0x800fffffffffffffULL)));
            break;
          case 2: // integer-valued
            out.push_back(double(std::int64_t(bits >> (bits & 63))));
            break;
          case 3: // a time rounded to milliseconds
            out.push_back(std::round(double(bits >> 20) * 1e-9 * 1000.0) /
                          1000.0);
            break;
          case 4: // short decimals around the %g fixed/scientific switch
            out.push_back(double(bits % 100000) *
                          std::pow(10.0, int(bits >> 60) - 10));
            break;
          default: // one ulp off a power of ten
            out.push_back(std::nextafter(
                std::pow(10.0, int(bits % 600) - 300),
                (bits >> 63) ? HUGE_VAL : 0.0));
        }
    }
    return out;
}

TEST(FormatDouble, MatchesSnprintfOnAMillionSeededValues)
{
    std::vector<double> values = doubleCorpus(1'000'000);
    // Every power of two, both signs: at 16 digits some of them print
    // other digits than their shortest form.
    for (const double v : powersOfTwo())
        values.push_back(v);
    std::size_t diffs = 0;
    std::size_t shortest = 0;
    std::string appended;
    for (const double v : values) {
        const std::string got = formatDouble(v);
        std::string want =
            referenceFormat(v, std::isfinite(v) ? shortestDigits(v) : 0);
        // Where printf's text would not parse back, the shortest form
        // is printed instead: exactly +-2^k at 46 exponents k, each in
        // exponent layout, where %g's text is to_chars' verbatim.
        if (std::isfinite(v) && std::strtod(want.c_str(), nullptr) != v) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(v) << 12, 0u)
                << std::hexfloat << v << " is not a power of two";
            want = shortestText(v);
            ++shortest;
        }
        if (got != want && ++diffs <= 5)
            ADD_FAILURE() << std::hexfloat << v << ": got " << got
                          << ", want " << want;
        appended.clear();
        appendDouble(appended, v);
        EXPECT_EQ(appended, got);
    }
    EXPECT_EQ(diffs, 0u) << "of " << values.size() << " values";
    EXPECT_EQ(shortest, 92u);
}

TEST(FormatDouble, ShortestDigitsAreTheShortestRoundTripPrecision)
{
    // The million-value check takes the precision from to_chars; pin
    // that to a snprintf/strtod probe, and check that the text parses
    // back -- every power of two included.
    std::vector<double> values = doubleCorpus(20'000);
    for (const double v : powersOfTwo())
        values.push_back(v);
    for (const double v : values) {
        if (!std::isfinite(v))
            continue;
        ASSERT_EQ(shortestDigits(v), shortestPrecision(v))
            << std::hexfloat << v;
        const std::string text = formatDouble(v);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(
                      std::strtod(text.c_str(), nullptr)),
                  std::bit_cast<std::uint64_t>(v))
            << text;
    }
}

std::optional<long long>
referenceInt(const std::string &text)
{
    try {
        std::size_t consumed = 0;
        const long long v = std::stoll(text, &consumed);
        if (consumed == text.size())
            return v;
    } catch (const std::exception &) {
    }
    return std::nullopt;
}

std::optional<double>
referenceDouble(const std::string &text)
{
    try {
        std::size_t consumed = 0;
        const double v = std::stod(text, &consumed);
        if (consumed == text.size() && std::isfinite(v))
            return v;
    } catch (const std::exception &) {
    }
    return std::nullopt;
}

/** Seed cells: the grammar's edges, then seeded formatted doubles. */
std::vector<std::string>
cellSeeds()
{
    std::vector<std::string> seeds = {
        "0", "1", "-1", "42", "007", "-0", "+1", " 1", "\t1", "1 ",
        " 1 ", "0x10", "1e3", "", "-", "+", "2147483647", "2147483648",
        "-2147483649", "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809",
        "99999999999999999999", "0.5", ".5", "1.", "0.", "1e", "e5",
        "1e5", "1E+2", "1e-5", "+0.5", "-0.0", "00.25", "0x1p3", "inf",
        "-inf", "INF", "nan", "NaN", "infinity", "1e-310", "4.9e-324",
        "1e-300", "1e400", "1.8e308", "0e-400", "0.000e999",
        "2.2250738585072014e-308", "2.2250738585072011e-308",
        "2.2250738585072009e-308", "1.7976931348623157e308",
        "1.7976931348623158e308", "1.7976931348623159e308",
        "1..2", "1e5.5", "1-2", "1e--5", "1e+", "12ab", "86400.125",
        "0.3333333333333333", "123456789012345678901234567890",
    };
    for (const double v : doubleCorpus(4000))
        seeds.push_back(formatDouble(v));
    return seeds;
}

/** 1-3 byte edits drawn from the characters number cells are made of. */
std::string
mutate(std::string s, Rng &rng)
{
    static const char kAlphabet[] = "0123456789.eE+- x\t";
    const int edits = 1 + int(rng.uniformInt(3));
    for (int e = 0; e < edits; ++e) {
        const std::size_t at = s.empty() ? 0 : rng.uniformInt(s.size());
        const char c = kAlphabet[rng.uniformInt(sizeof(kAlphabet) - 1)];
        switch (rng.uniformInt(5)) {
          case 0:
            s.insert(s.begin() + std::ptrdiff_t(at), c);
            break;
          case 1:
            if (!s.empty())
                s.erase(at, 1);
            break;
          case 2:
            if (!s.empty())
                s[at] = c;
            break;
          case 3:
            if (!s.empty())
                s.insert(s.begin() + std::ptrdiff_t(at), s[at]);
            break;
          default:
            s.resize(at);
        }
    }
    return s;
}

TEST(ParseText, MatchesStollAndStodOnASeededMutationCorpus)
{
    const std::vector<std::string> seeds = cellSeeds();
    std::vector<std::string> corpus = seeds;
    Rng rng(1009);
    for (int i = 0; i < 200'000; ++i)
        corpus.push_back(mutate(seeds[rng.uniformInt(seeds.size())], rng));

    std::size_t diffs = 0, accepted = 0;
    for (const std::string &text : corpus) {
        const std::optional<long long> i = parseIntText(text);
        const std::optional<long long> iRef = referenceInt(text);
        const std::optional<double> d = parseDoubleText(text);
        const std::optional<double> dRef = referenceDouble(text);
        const bool same =
            i == iRef && d.has_value() == dRef.has_value() &&
            (!d || std::bit_cast<std::uint64_t>(*d) ==
                       std::bit_cast<std::uint64_t>(*dRef));
        accepted += d.has_value();
        if (!same && ++diffs <= 5)
            ADD_FAILURE() << "cell '" << text << "': int "
                          << (i ? std::to_string(*i) : "reject") << " vs "
                          << (iRef ? std::to_string(*iRef) : "reject")
                          << ", double "
                          << (d ? formatDouble(*d) : "reject") << " vs "
                          << (dRef ? formatDouble(*dRef) : "reject");
    }
    EXPECT_EQ(diffs, 0u) << "of " << corpus.size() << " cells";
    // The corpus must exercise both verdicts, not only rejections.
    EXPECT_GT(accepted, corpus.size() / 4);
    EXPECT_LT(accepted, corpus.size());
}

// The shared CSV appenders: one leading comma per cell, bools as 0/1,
// integers in decimal, doubles via appendDouble, text quoted only when
// it needs it -- and a string literal is text, never a bool.
TEST(CsvCells, AppendersWriteOneCellEach)
{
    std::string out = "x";
    appendCells(out, "a,b", true, false, -7,
                std::uint64_t(18446744073709551615ULL), 0.5, std::nan(""),
                std::string_view("q\"x"), std::string("plain"));
    EXPECT_EQ(out, "x,\"a,b\",1,0,-7,18446744073709551615,0.5,nan,"
                   "\"q\"\"x\",plain");
}

// splitCsvCells inverts appendCsvCell over seeded cells drawn from the
// CSV specials.
TEST(CsvCells, SplitInvertsTheAppenders)
{
    Rng rng(4180);
    static const char kAlphabet[] = "ab ,\"\n#";
    std::vector<std::string_view> got;
    for (int i = 0; i < 20000; ++i) {
        std::vector<std::string> want(1 + rng.uniformInt(5));
        std::string line;
        for (std::size_t c = 0; c < want.size(); ++c) {
            for (std::uint64_t n = rng.uniformInt(5); n > 0; --n)
                want[c] += kAlphabet[rng.uniformInt(sizeof(kAlphabet) - 1)];
            if (c)
                line += ',';
            appendCsvCell(line, want[c]);
        }
        const std::string written = line;
        ASSERT_EQ(splitCsvCells(line, &got), "") << written;
        ASSERT_EQ(std::vector<std::string>(got.begin(), got.end()), want)
            << written;
    }
}

// Unquoted cells split at every comma ('"' inside them is literal);
// a quoted cell must close, and only a comma may follow it.
TEST(CsvCells, SplitEdgeCasesArePinned)
{
    const struct
    {
        std::string line;
        std::vector<std::string> cells;
        std::string_view error;
    } cases[] = {
        {"", {""}, ""},
        {",", {"", ""}, ""},
        {"a,b,", {"a", "b", ""}, ""},
        {"a\"b,c\"", {"a\"b", "c\""}, ""},
        {"\"\"", {""}, ""},
        {"\"\"\"\"", {"\""}, ""},
        {"\"a,b\",\"\",c", {"a,b", "", "c"}, ""},
        {"\"a\",", {"a", ""}, ""},
        {" \"a\"", {" \"a\""}, ""},
        {"\"a", {}, "unterminated quoted cell"},
        {"x,\"a\"\"", {}, "unterminated quoted cell"},
        {"\"a\"b", {}, "text after a closing quote"},
        {"\"a\" ,b", {}, "text after a closing quote"},
    };
    std::vector<std::string_view> got;
    for (const auto &c : cases) {
        std::string line = c.line;
        EXPECT_EQ(splitCsvCells(line, &got), c.error) << c.line;
        if (c.error.empty()) {
            EXPECT_EQ(std::vector<std::string>(got.begin(), got.end()),
                      c.cells)
                << c.line;
        }
    }
}

} // namespace
} // namespace diva
