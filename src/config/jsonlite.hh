/**
 * @file
 * A minimal JSON reader for the configuration surfaces: objects of
 * strings, numbers, booleans, and nested objects — exactly the shape
 * of RunSpec documents (`mcd-runspec-v1`) and fuzz repro files
 * (`mcd-repro-v2`). Writing goes through common/json_writer. Arrays and null are rejected:
 * no config document uses them, and rejecting keeps the parser small
 * enough to audit.
 *
 * Number tokens are preserved as their source text (not converted to
 * double), so values like a fuzz scenario's "0.050000" round-trip
 * exactly through read-then-rewrite paths — the same bit-identity
 * discipline as the spec-grammar parsers.
 */

#ifndef MCD_CONFIG_JSONLITE_HH
#define MCD_CONFIG_JSONLITE_HH

#include <string>
#include <utility>
#include <vector>

namespace mcd {
namespace config {
namespace jsonlite {

struct Value
{
    enum class Kind { String, Number, Bool, Object };

    Kind kind = Kind::String;
    std::string text;   //!< unescaped string / number token / "true"
    std::vector<std::pair<std::string, Value>> members; //!< Object

    /** Member lookup (Object only); nullptr when absent. */
    const Value *find(const std::string &key) const;
};

/**
 * Parse @p text as one JSON value (object at any depth). Returns
 * false and fills @p err on malformed input — never throws, so
 * callers with a "shape errors are soft" contract (readRepro) can
 * degrade gracefully while config-file loaders turn err into fatal().
 * Duplicate keys within an object are an error.
 */
bool parse(const std::string &text, Value &out, std::string &err);

} // namespace jsonlite
} // namespace config
} // namespace mcd

#endif // MCD_CONFIG_JSONLITE_HH
