#include "common/format.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace diva
{

void
appendCsvCell(std::string &out, std::string_view s, bool quote)
{
    if (!quote && s.find_first_of(",\"\n") == std::string_view::npos) {
        out += s;
        return;
    }
    out += '"';
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
}

std::string_view
splitCsvCells(std::span<char> line, std::vector<std::string_view> *cells)
{
    cells->clear();
    char *p = line.data();
    char *const end = p + line.size();
    for (;;) {
        if (p == end || *p != '"') {
            const std::string_view rest(p, std::size_t(end - p));
            const std::size_t comma = rest.find(',');
            cells->push_back(rest.substr(0, comma));
            if (comma == std::string_view::npos)
                return {};
            p += comma + 1;
            continue;
        }
        // Quoted cell: copy its unescaped text down over the opening
        // quote; the write cursor never passes the read cursor.
        char *const begin = p;
        char *out = p++;
        for (;;) {
            if (p == end)
                return "unterminated quoted cell";
            if (*p == '"') {
                if (p + 1 == end || p[1] != '"')
                    break;
                ++p; // "" is one escaped quote
            }
            *out++ = *p++;
        }
        cells->emplace_back(begin, std::size_t(out - begin));
        if (++p == end)
            return {};
        if (*p != ',')
            return "text after a closing quote";
        ++p;
    }
}

std::string
csvCell(const std::string &s)
{
    std::string out;
    appendCsvCell(out, s);
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
appendDouble(std::string &out, double v)
{
    // Non-finite values never round-trip (nan != nan would drive the
    // precision loop to 17 digits) and %g spells them platform-
    // dependently; pin the text form.
    if (std::isnan(v)) {
        out += "nan";
        return;
    }
    if (std::isinf(v)) {
        out += v < 0.0 ? "-inf" : "inf";
        return;
    }
    // %.17g round-trips but is noisy; the text is printf's %.{P}g with
    // P = max(6, d), d the digit count of the shortest round-trip form
    // (6 is the historical %g default). One to_chars call gives those
    // d digits and their exponent X, and they are the %.{P}g digits
    // too (zero-padded), so %g's layout is done here without a second
    // conversion: exponent form iff X < -4 or X >= P -- which is the
    // shortest-scientific text itself, as it carries no trailing zeros
    // and a two-digit-minimum exponent -- else fixed notation.
    char buf[32];
    char *end = std::to_chars(buf, buf + sizeof(buf), v,
                              std::chars_format::scientific)
                    .ptr;
    const bool neg = buf[0] == '-';
    char digits[20];
    int d = 0;
    const char *c = buf + neg;
    for (; *c != 'e'; ++c)
        if (*c != '.')
            digits[d++] = *c;
    int x = 0;
    std::from_chars(c + 1 + (c[1] == '+'), end, x);
    const int prec = d < 6 ? 6 : d;
    // A subnormal padded to 6 digits has a rounding interval wider
    // than the %.6g digit grid, so printf's correctly rounded digits
    // differ from the shortest ones (DBL_TRUE_MIN is 4.94066e-324, not
    // 5e-324) yet still parse back; it keeps the second, printf-exact
    // call. An exact power of two at 16-17 digits has such an interval
    // too, on its lower side, and printf's digits there need not parse
    // back (2^-24 at %.16g), so it keeps the shortest digits.
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    const bool zeroExp = (bits & 0x7ff0000000000000ULL) == 0;
    const bool zeroMant = (bits & 0x000fffffffffffffULL) == 0;
    if (d < 6 && zeroExp && !zeroMant) {
        const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::general, prec);
        out.append(buf, res.ptr);
        return;
    }
    if (x < -4 || x >= prec) {
        out.append(buf, end);
        return;
    }
    if (neg)
        out += '-';
    if (x < 0) {
        out += "0.";
        out.append(std::size_t(-x - 1), '0');
        out.append(digits, std::size_t(d));
    } else if (d <= x + 1) {
        out.append(digits, std::size_t(d));
        out.append(std::size_t(x + 1 - d), '0');
    } else {
        out.append(digits, std::size_t(x + 1));
        out += '.';
        out.append(digits + x + 1, std::size_t(d - x - 1));
    }
}

std::string
formatDouble(double v)
{
    std::string out;
    appendDouble(out, v);
    return out;
}

std::string
jsonNumber(double v)
{
    // JSON has no NaN/Infinity literals; emit null for non-finite.
    return std::isfinite(v) ? formatDouble(v) : "null";
}

} // namespace diva
