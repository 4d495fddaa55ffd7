/**
 * @file
 * The one JSON emitter for every document the simulator writes:
 * results, leaderboard, telemetry stats, Chrome traces, the host
 * profile, effectiveConfig blocks, fuzz repros and the soak journal.
 *
 * A streaming writer over std::ostream. It owns string escaping, the
 * comma between members, nesting and indentation, and the number
 * format, so no caller hand-keeps a "first" flag or sets stream
 * precision. Each container picks its layout in code:
 *
 *   Pretty   one member per line, indented two spaces per open
 *            container; an empty one closes on its own line
 *            ("{\n<indent>}").
 *   Inline   members separated by ", " on the current line.
 *
 * Numbers: measurements (doubles) are written "%.17g", which round-
 * trips every double, with NaN and +/-inf — which JSON cannot express
 * — as null. Integers are written exactly. Values that are already
 * canonical JSON tokens (RunSpec's shortest round-trip config values)
 * go through raw() untouched.
 */

#ifndef MCD_COMMON_JSON_WRITER_HH
#define MCD_COMMON_JSON_WRITER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mcd {
namespace json {

/** How a container lays out its members. */
enum Layout { Pretty, Inline };

/** @p s as a JSON string literal: quoted, with '"', '\\' and every
 *  byte below 0x20 escaped. */
std::string quote(std::string_view s);

/** A measurement as a JSON number token: "%.17g", NaN/inf as null. */
std::string number(double v);

/** The exact decimal @p scaled / 10^@p fracDigits, e.g. picoseconds
 *  on a microsecond axis without rounding through a double. */
std::string fixedPoint(std::uint64_t scaled, unsigned fracDigits);

/** `"key": token` — one member of an object body rendered ahead of
 *  its document (trace-event args). */
std::string member(std::string_view key, std::string_view token);

class Writer
{
  public:
    explicit Writer(std::ostream &os) : out(os) {}

    Writer &beginObject(Layout l = Pretty) { return open('{', '}', l); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray(Layout l = Pretty) { return open('[', ']', l); }
    Writer &endArray() { return close(']'); }

    /** Name the next member of the enclosing object. */
    Writer &key(std::string_view k);

    Writer &value(std::string_view s) { return raw(quote(s)); }
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(bool b) { return raw(b ? "true" : "false"); }
    Writer &value(double v) { return raw(number(v)); }

    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool> &&
                                   !std::is_same_v<T, char>,
                               int> = 0>
    Writer &
    value(T v)
    {
        return raw(std::to_string(v));
    }

    /** An already-canonical JSON token, written verbatim. */
    Writer &raw(std::string_view token);

    /** key(k) then value(v). */
    template <typename T>
    Writer &
    field(std::string_view k, const T &v)
    {
        return key(k).value(v);
    }

  private:
    struct Frame
    {
        char closer;
        Layout layout;
        bool empty = true;
    };

    /** The separator and indentation before a member or element. */
    void separate();
    Writer &open(char bracket, char closer, Layout layout);
    Writer &close(char closer);

    std::ostream &out;
    std::vector<Frame> stack;
    bool afterKey = false;
};

} // namespace json
} // namespace mcd

#endif // MCD_COMMON_JSON_WRITER_HH
