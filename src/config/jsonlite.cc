#include "jsonlite.hh"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace mcd {
namespace config {
namespace jsonlite {

const Value *
Value::find(const std::string &key) const
{
    for (const auto &[k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace {

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string err;

    bool
    fail(const std::string &msg)
    {
        err = msg + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
    }

    bool
    expect(char c)
    {
        skipSpace();
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("unterminated escape");
            char e = text[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                // The writer's \u00XX for control bytes. Non-ASCII
                // code points would need UTF-16 handling no document
                // requires; reject rather than mis-decode.
                unsigned cp = 0;
                const char *hex = text.data() + pos;
                auto [stop, ec] = std::from_chars(
                    hex, hex + std::min<std::size_t>(4, text.size() - pos),
                    cp, 16);
                if (ec != std::errc() || stop != hex + 4 || cp >= 0x80)
                    return fail("unsupported \\u escape");
                pos += 4;
                out += static_cast<char>(cp);
                break;
              }
              default:
                return fail(std::string("unsupported escape '\\") + e +
                            "'");
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos;      // closing quote
        return true;
    }

    bool
    parseValue(Value &out)
    {
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{')
            return parseObject(out);
        if (c == '"') {
            out.kind = Value::Kind::String;
            return parseString(out.text);
        }
        if (c == 't' || c == 'f') {
            const char *word = c == 't' ? "true" : "false";
            if (text.compare(pos, std::string(word).size(), word) != 0)
                return fail("malformed literal");
            out.kind = Value::Kind::Bool;
            out.text = word;
            pos += std::string(word).size();
            return true;
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t start = pos;
            while (pos < text.size() &&
                   (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                    text[pos] == '-' || text[pos] == '+' ||
                    text[pos] == '.' || text[pos] == 'e' ||
                    text[pos] == 'E')) {
                ++pos;
            }
            out.kind = Value::Kind::Number;
            out.text = text.substr(start, pos - start);
            return true;
        }
        if (c == '[')
            return fail("arrays are not part of any config document");
        if (c == 'n')
            return fail("null is not part of any config document");
        return fail("unexpected character");
    }

    bool
    parseObject(Value &out)
    {
        if (!expect('{'))
            return false;
        out.kind = Value::Kind::Object;
        out.members.clear();
        skipSpace();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key))
                return false;
            if (out.find(key))
                return fail("duplicate key '" + key + "'");
            if (!expect(':'))
                return false;
            Value v;
            if (!parseValue(v))
                return false;
            out.members.emplace_back(std::move(key), std::move(v));
            skipSpace();
            if (pos >= text.size())
                return fail("unterminated object");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }
};

} // namespace

bool
parse(const std::string &text, Value &out, std::string &err)
{
    Parser p{text, 0, {}};
    if (!p.parseValue(out)) {
        err = p.err;
        return false;
    }
    p.skipSpace();
    if (p.pos != text.size()) {
        err = "trailing content at offset " + std::to_string(p.pos);
        return false;
    }
    return true;
}

} // namespace jsonlite
} // namespace config
} // namespace mcd
