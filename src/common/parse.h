/**
 * @file
 * Whole-string number parsing shared by the CLI flag parsers and the
 * arrival-trace loaders: the entire text must be consumed (trailing
 * garbage rejects), doubles must be finite, and failure reports
 * through std::optional so each caller attaches its own message. One
 * definition here keeps the accept/reject rules identical everywhere
 * a number crosses a text boundary. The `key=value,...` list walker
 * shared by the --arrivals and --pod specs lives here too.
 */

#ifndef DIVA_COMMON_PARSE_H
#define DIVA_COMMON_PARSE_H

#include <cfloat>
#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>

namespace diva
{

/**
 * Parse a whole string as an integer; nullopt on any malformation.
 * The grammar is std::stoll's: leading blanks and '+' are accepted,
 * trailing text and overflow reject.
 */
inline std::optional<long long>
parseIntText(std::string_view text)
{
    // Fast path: from_chars consuming the whole text means a plain
    // "[-]digits" cell, which stoll reads the same way. Every other
    // spelling falls through to stoll, which alone decides it.
    long long value = 0;
    const char *end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, value);
    if (res.ec == std::errc() && res.ptr == end)
        return value;
    try {
        const std::string copy(text);
        std::size_t consumed = 0;
        value = std::stoll(copy, &consumed);
        if (consumed == copy.size())
            return value;
    } catch (const std::exception &) {
    }
    return std::nullopt;
}

/**
 * Parse a whole string as a finite double; nullopt otherwise. The
 * grammar is std::stod's (leading blanks, '+', ".5", hex floats), and
 * a result stod reports out of range (overflow, or underflow into the
 * subnormals) rejects.
 */
inline std::optional<double>
parseDoubleText(std::string_view text)
{
    // Fast path: a cell that starts with a digit and that from_chars
    // consumes whole is a plain decimal ([0-9.eE+-] only). Its value
    // is strtod's when it lies strictly inside the normal range, or is
    // zero from an all-zero mantissa; at the range edges only strtod
    // knows whether it raises ERANGE, so those cells, and every other
    // spelling, fall through to stod.
    if (!text.empty() && text[0] >= '0' && text[0] <= '9') {
        double value = 0.0;
        const char *end = text.data() + text.size();
        const auto res = std::from_chars(text.data(), end, value);
        if (res.ec == std::errc() && res.ptr == end) {
            if (value > DBL_MIN && value < DBL_MAX)
                return value;
            const std::string_view mantissa =
                text.substr(0, text.find_first_of("eE"));
            if (value == 0.0 &&
                mantissa.find_first_not_of("0.") == std::string_view::npos)
                return value;
        }
    }
    try {
        const std::string copy(text);
        std::size_t consumed = 0;
        const double value = std::stod(copy, &consumed);
        if (consumed == copy.size() && std::isfinite(value))
            return value;
    } catch (const std::exception &) {
    }
    return std::nullopt;
}

/**
 * parseIntText restricted to [lo, hi] -- the caller's int-typed
 * destination never sees a silently wrapped 64-bit value.
 */
inline std::optional<long long>
parseBoundedIntText(std::string_view text, long long lo, long long hi)
{
    const std::optional<long long> v = parseIntText(text);
    if (v && *v >= lo && *v <= hi)
        return v;
    return std::nullopt;
}

/**
 * Walk a `key=value,...` list in order, calling fn(key, value) per
 * item; empty items are skipped and the value runs to the item's end
 * ("a=b=c" is key "a", value "b=c"). Stops at the first item without
 * '=' -- *error becomes "expected key=value, got 'ITEM'" -- or the
 * first fn call that returns false (fn sets *error itself). True when
 * every item was consumed.
 */
template <typename Fn>
bool
forEachKeyValue(std::string_view text, std::string *error, Fn &&fn)
{
    while (!text.empty()) {
        const std::size_t comma = text.find(',');
        const std::string_view item = text.substr(0, comma);
        text.remove_prefix(comma == std::string_view::npos ? text.size()
                                                           : comma + 1);
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos) {
            *error = "expected key=value, got '" + std::string(item) + "'";
            return false;
        }
        if (!fn(std::string(item.substr(0, eq)),
                std::string(item.substr(eq + 1))))
            return false;
    }
    return true;
}

} // namespace diva

#endif // DIVA_COMMON_PARSE_H
