/**
 * @file
 * One typed configuration option: the unit of the registry
 * (registry.hh) and of RunSpec resolution (runspec.hh).
 *
 * Every behavior-controlling knob in the tree is an OptionDef row:
 * its canonical name (the RunSpec JSON key), its environment alias
 * (the legacy MCD_* variable), its CLI flag, a type, a default, a doc
 * string, and the section it belongs to. The registry is the single
 * source of truth — the schema reference (docs/config-reference.md),
 * the --dump-config-schema output, flag parsing, env scanning, and
 * the effectiveConfig block in every results document are all derived
 * from it.
 */

#ifndef MCD_CONFIG_OPTION_HH
#define MCD_CONFIG_OPTION_HH

#include <string>

namespace mcd {
namespace config {

/** Value type of an option (drives parsing, validation, and how the
 *  value is rendered in RunSpec JSON). */
enum class Type { Bool, Int, U64, Double, String, Path };

/** Where a resolved value came from, in ascending precedence.
 *  (Emitted provenance additionally uses "code" for values the
 *  calling program set programmatically — see provenanceFor().) */
enum class Source { Default, File, Env, Flag };

struct OptionDef
{
    const char *name;       //!< canonical RunSpec key, e.g. "scale"
    const char *env;        //!< environment alias, e.g. "MCD_SCALE"
    const char *flag;       //!< CLI flag, e.g. "--scale"
    Type type;
    const char *defaultValue;   //!< default, as canonical text
    const char *doc;        //!< one-line schema description
    const char *section;    //!< "matrix", "host", "output", "soak", "meta"

    /**
     * True when the option shapes simulation *results* (as opposed to
     * host execution or output routing). Only these options appear in
     * the effectiveConfig block, which keeps results documents
     * byte-identical across MCD_JOBS values and output paths — the
     * repo-wide jobs-invariance contract.
     */
    bool affectsResults;

    /** Optional range check, run after the type-level parse. Fatal
     *  (via the common/spec.hh conventions) on violation. */
    void (*check)(const OptionDef &opt, const std::string &what,
                  const std::string &value);
};

const char *typeName(Type t);
const char *sourceName(Source s);

} // namespace config
} // namespace mcd

#endif // MCD_CONFIG_OPTION_HH
