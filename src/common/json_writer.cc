#include "json_writer.hh"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/log.hh"

namespace mcd {
namespace json {

std::string
quote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
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
    out += '"';
    return out;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
fixedPoint(std::uint64_t scaled, unsigned fracDigits)
{
    std::uint64_t unit = 1;
    for (unsigned i = 0; i < fracDigits; ++i)
        unit *= 10;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%llu.%0*llu",
                  static_cast<unsigned long long>(scaled / unit),
                  static_cast<int>(fracDigits),
                  static_cast<unsigned long long>(scaled % unit));
    return buf;
}

std::string
member(std::string_view key, std::string_view token)
{
    std::string out = quote(key);
    out += ": ";
    out += token;
    return out;
}

void
Writer::separate()
{
    if (afterKey) {
        afterKey = false;
        return;
    }
    if (stack.empty())
        return;
    Frame &f = stack.back();
    if (f.layout == Pretty) {
        out << (f.empty ? "\n" : ",\n")
            << std::string(2 * stack.size(), ' ');
    } else if (!f.empty) {
        out << ", ";
    }
    f.empty = false;
}

Writer &
Writer::open(char bracket, char closer, Layout layout)
{
    separate();
    out << bracket;
    stack.push_back({closer, layout});
    return *this;
}

Writer &
Writer::close(char closer)
{
    if (stack.empty() || afterKey || stack.back().closer != closer)
        panic(std::string("json::Writer: unbalanced '") + closer + "'");
    Layout layout = stack.back().layout;
    stack.pop_back();
    if (layout == Pretty)
        out << '\n' << std::string(2 * stack.size(), ' ');
    out << closer;
    return *this;
}

Writer &
Writer::key(std::string_view k)
{
    separate();
    out << quote(k) << ": ";
    afterKey = true;
    return *this;
}

Writer &
Writer::raw(std::string_view token)
{
    separate();
    out << token;
    return *this;
}

} // namespace json
} // namespace mcd
