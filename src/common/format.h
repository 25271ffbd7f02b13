/**
 * @file
 * Deterministic text formatting shared by every CSV/JSON emitter
 * (sweep, serve, fleet, telemetry, arrival traces): shortest-precision
 * %g doubles with pinned nan/inf spellings, JSON number tokens that
 * map non-finite values to null, JSON string escaping, and the one CSV
 * cell grammar -- RFC-4180 quoting on the way out, the matching cell
 * splitter on the way in. One definition here keeps the guards
 * identical across emitters and loaders instead of drifting per copy.
 *
 * CSV rows are built by appending cells into one reused buffer
 * (appendCells) rather than a stream per row: million-session fleets
 * emit their per-tenant CSV in a few seconds instead of minutes.
 */

#ifndef DIVA_COMMON_FORMAT_H
#define DIVA_COMMON_FORMAT_H

#include <charconv>
#include <concepts>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace diva
{

/**
 * Decimal form of a double ("0.25", "1e-06"): printf's %.{P}g layout
 * of the shortest round-trip digits, with P their count floored at 6.
 * It takes one std::to_chars call and lays out %g's text from those
 * digits; a subnormal shorter than 6 digits takes a second,
 * printf-exact call, because %.6g pads it with other digits (its text
 * parses back all the same). So every finite value's text parses back
 * to v. That is printf's own %.{P}g text except for +-2^k at 46
 * exponents k, whose correctly rounded digits miss by one in the last
 * place (2^-24 prints as 5.960464477539063e-08; %.16g gives ...062,
 * which parses to another double). Non-finite values format as "nan" /
 * "inf" / "-inf".
 */
std::string formatDouble(double v);

/** Append formatDouble(v) to `out` without a temporary string. */
void appendDouble(std::string &out, double v);

/** JSON number token for v: formatDouble, or "null" when non-finite. */
std::string jsonNumber(double v);

/** Quote a CSV-unsafe cell per RFC 4180; safe cells pass through. */
std::string csvCell(const std::string &s);

/**
 * Append csvCell(s) to `out` without a temporary string; `quote`
 * quotes even a safe cell.
 */
void appendCsvCell(std::string &out, std::string_view s,
                   bool quote = false);

/** Append ",cell": a double via appendDouble. */
inline void
appendCell(std::string &out, double v)
{
    out += ',';
    appendDouble(out, v);
}

/** Append an integer in decimal, or a bool as 0/1. */
template <std::integral T>
void
appendInt(std::string &out, T v)
{
    if constexpr (std::is_same_v<T, bool>) {
        out += v ? '1' : '0';
    } else {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    }
}

/** Append ",cell": an integer via appendInt. */
template <std::integral T>
void
appendCell(std::string &out, T v)
{
    out += ',';
    appendInt(out, v);
}

/** Append ",cell": text, CSV-quoted when it needs it. */
inline void
appendCell(std::string &out, std::string_view s)
{
    out += ',';
    appendCsvCell(out, s);
}

/** Append one ",cell" per argument, in order. */
template <typename... Cells>
void
appendCells(std::string &out, const Cells &...cells)
{
    (appendCell(out, cells), ...);
}

/**
 * Hand a row buffer to `os` once it passes 1 MiB (or at once with
 * `all`) and clear it; a writer calls this after every row, so a
 * million-row CSV keeps one bounded buffer.
 */
inline void
flushRows(std::ostream &os, std::string &buf, bool all = false)
{
    if (all || buf.size() >= (std::size_t(1) << 20)) {
        os.write(buf.data(), std::streamsize(buf.size()));
        buf.clear();
    }
}

/**
 * Split one CSV line (no line terminator) into `cells`, the inverse of
 * appendCsvCell: cells split at commas, and a cell that opens with '"'
 * runs to its closing quote, with "" read as one '"'. Such a cell is
 * unescaped in place in `line`, so every cell is a view into it. A '"'
 * inside an unquoted cell is literal, and a line without quoted cells
 * splits exactly as a plain comma split would; a trailing comma ends
 * in one empty cell. Returns "" on success, else what is malformed (an
 * unterminated quoted cell -- cells spanning lines included -- or
 * text after a closing quote).
 */
std::string_view splitCsvCells(std::span<char> line,
                               std::vector<std::string_view> *cells);

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace diva

#endif // DIVA_COMMON_FORMAT_H
