/**
 * @file
 * Deterministic text formatting shared by every CSV/JSON emitter
 * (sweep, serve, fleet, arrival traces): shortest-precision %g doubles
 * with pinned nan/inf spellings, JSON number tokens that map
 * non-finite values to null, RFC-4180 CSV cell quoting, and JSON
 * string escaping. One definition here keeps the guards identical
 * across emitters instead of drifting per copy.
 */

#ifndef DIVA_COMMON_FORMAT_H
#define DIVA_COMMON_FORMAT_H

#include <string>
#include <string_view>

namespace diva
{

/**
 * Decimal form of a double ("0.25", "1e-06"): printf's %.{P}g with P
 * the digit count of the shortest round-trip form, floored at 6. It
 * takes one std::to_chars call and lays out %g's text from those
 * digits; a subnormal shorter than 6 digits and an exact power of two
 * at 16-17 digits take a second, printf-exact call, because their %g
 * digits differ from the shortest ones. The text parses back to v
 * except for +-2^k at 46 exponents k, whose 16-digit %g rounding
 * misses (2^-24 prints as 5.960464477539062e-08). Non-finite values
 * format as "nan" / "inf" / "-inf".
 */
std::string formatDouble(double v);

/** Append formatDouble(v) to `out` without a temporary string. */
void appendDouble(std::string &out, double v);

/** JSON number token for v: formatDouble, or "null" when non-finite. */
std::string jsonNumber(double v);

/** Quote a CSV-unsafe cell per RFC 4180; safe cells pass through. */
std::string csvCell(const std::string &s);

/** Append csvCell(s) to `out` without a temporary string. */
void appendCsvCell(std::string &out, std::string_view s);

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace diva

#endif // DIVA_COMMON_FORMAT_H
