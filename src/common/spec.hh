/**
 * @file
 * The one tokenizer and value reader behind every text grammar.
 *
 * Every text input — env var, config file, CLI flag, and the
 * sub-grammars carried inside them (leg sets, controller params,
 * sampling point, fault plan, invariant rules, fuzz workloads,
 * scenario configs) — splits, trims and reads numbers through these
 * helpers, so one input is judged by one set of rules wherever it
 * appears:
 *
 * - lists drop empty items ("a,,b" is "a,b");
 * - a key=value item splits at its first '=', and neither side may
 *   be empty;
 * - a number is the whole token: no leading or trailing space, no
 *   '+', no hex, no suffix, in range for its type, and finite.
 *
 * These are *pure* parsers: they never touch the process environment.
 * The only environment reads in the tree live in src/config/
 * (enforced by a CI grep), and no raw strto*, ato* or std::sto* call
 * exists outside this header (another CI grep).
 *
 * The boolean rule (DESIGN.md §15): values are checked, not presence.
 * "", "0", "false", "no", "off" are false; "1", "true", "yes", "on"
 * are true; anything else is fatal. MCD_X=0 therefore always means
 * *disabled*, never "enabled because the variable exists".
 */

#ifndef MCD_COMMON_SPEC_HH
#define MCD_COMMON_SPEC_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace mcd {
namespace spec {

/** The @p sep-separated items of @p s in order, empty items
 *  dropped. */
inline std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    while (!s.empty()) {
        std::size_t at = s.find(sep);
        std::string_view item = s.substr(0, at);
        if (!item.empty())
            out.emplace_back(item);
        if (at == std::string_view::npos)
            break;
        s.remove_prefix(at + 1);
    }
    return out;
}

/** @p s without leading and trailing spaces, tabs, CRs and LFs. */
inline std::string
trim(std::string_view s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string_view::npos)
        return {};
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return std::string(s.substr(b, e - b + 1));
}

/** @p item split at its first '='; fatal, naming @p what, when there
 *  is no '=' or the key or the value is empty. */
inline std::pair<std::string, std::string>
keyValue(const std::string &what, std::string_view item)
{
    std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == item.size())
        fatal(what + ": expected key=value (got '" + std::string(item) +
              "')");
    return {std::string(item.substr(0, eq)),
            std::string(item.substr(eq + 1))};
}

/** Value-checked boolean (see file comment). @p what names the
 *  setting in the fatal message. */
inline bool
parseBool(const std::string &what, std::string_view v)
{
    if (v.empty() || v == "0" || v == "false" || v == "no" ||
        v == "off") {
        return false;
    }
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    fatal(what + ": boolean value must be one of 0/1/true/false/"
          "yes/no/on/off (got '" + std::string(v) + "')");
}

/** Whole-string signed integer; fatal on anything else. */
inline long long
parseInt(const std::string &what, std::string_view v)
{
    long long out = 0;
    auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc() || ptr != v.data() + v.size() || v.empty())
        fatal(what + ": expected an integer (got '" + std::string(v) +
              "')");
    return out;
}

/** parseInt() restricted to [@p lo, @p hi]; fatal outside it. */
inline long long
parseInt(const std::string &what, std::string_view v, long long lo,
         long long hi)
{
    long long out = parseInt(what, v);
    if (out < lo || out > hi)
        fatal(what + ": must be in [" + std::to_string(lo) + ", " +
              std::to_string(hi) + "] (got '" + std::string(v) + "')");
    return out;
}

/** Whole-string unsigned 64-bit integer; fatal on anything else. */
inline std::uint64_t
parseU64(const std::string &what, std::string_view v)
{
    std::uint64_t out = 0;
    auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc() || ptr != v.data() + v.size() || v.empty())
        fatal(what + ": expected an unsigned integer (got '" +
              std::string(v) + "')");
    return out;
}

/** Whole-string finite double; fatal on anything else. */
inline double
parseDouble(const std::string &what, std::string_view v)
{
    double out = 0.0;
    auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc() || ptr != v.data() + v.size() || v.empty() ||
        !std::isfinite(out))
        fatal(what + ": expected a finite number (got '" +
              std::string(v) + "')");
    return out;
}

} // namespace spec
} // namespace mcd

#endif // MCD_COMMON_SPEC_HH
