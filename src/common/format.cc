#include "common/format.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace diva
{

void
appendCsvCell(std::string &out, std::string_view s)
{
    if (s.find_first_of(",\"\n") == std::string_view::npos) {
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
    // %.17g round-trips but is noisy; use the shortest precision that
    // parses back exactly, floored at 6 (the historical %g default).
    // The shortest-scientific form's mantissa length *is* that
    // precision -- correctly-rounded printf round-trips at any
    // precision >= it and at none below. to_chars with an explicit
    // precision is specified as printf's %.*g, minus the locale and
    // the format-string parse that made snprintf the cost of
    // million-row CSV emission.
    char buf[64];
    const auto sci = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::scientific);
    int digits = 0;
    for (const char *c = buf; c != sci.ptr && *c != 'e'; ++c)
        digits += *c >= '0' && *c <= '9';
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), v,
                      std::chars_format::general, digits < 6 ? 6 : digits);
    out.append(buf, res.ptr);
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
