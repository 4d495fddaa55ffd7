/**
 * @file
 * RunSpec: the resolved, typed configuration of one run, with
 * per-option provenance.
 *
 * Resolution layers every option through defaults < config file
 * (`--config` / `MCD_CONFIG`, a `mcd-runspec-v1` JSON document) < env
 * vars < CLI flags, records where each value came from, rejects
 * unknown config-file keys outright, and scans the environment for
 * unregistered MCD_* variables (warn-once typo canary; fatal under
 * strictEnv; silenced per-name by the envAllow list).
 *
 * resolve() re-reads the environment and flag store every call — a
 * RunSpec is a snapshot, not a singleton — so tests that setenv() /
 * unsetenv() around calls observe exactly what they set.
 */

#ifndef MCD_CONFIG_RUNSPEC_HH
#define MCD_CONFIG_RUNSPEC_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_writer.hh"
#include "config/registry.hh"

namespace mcd {
namespace config {

/** The RunSpec JSON document version ("mcd-runspec-v1"). */
extern const char *const runSpecVersion;

struct RunSpec
{
    struct Entry
    {
        std::string value;      //!< raw text as given by its layer
        Source source = Source::Default;
    };

    /** One entry per registered option, keyed by canonical name. */
    std::map<std::string, Entry, std::less<>> entries;

    /** Unregistered MCD_* env names seen at resolution (after the
     *  allowlist), exposed so the typo canary is testable. */
    std::vector<std::string> unknownEnv;

    /** Resolve all layers; fatal() on invalid values, unknown
     *  config-file keys, or (under strictEnv) unknown MCD_* vars. */
    static RunSpec resolve();

    const Entry &entry(std::string_view name) const;
    Source source(std::string_view name) const;
    bool isDefault(std::string_view name) const;

    /** Typed accessors (fatal on a type mismatch — resolution already
     *  validated, so these only throw for programmer errors). */
    std::string str(std::string_view name) const;
    bool boolean(std::string_view name) const;
    long long integer(std::string_view name) const;
    std::uint64_t u64(std::string_view name) const;
    double real(std::string_view name) const;

    /** The resolved worker count: the jobs option, with 0 mapped to
     *  hardware concurrency. */
    int jobs() const;
};

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitList(const std::string &csv);

/** Shortest double text that reparses bit-identically. */
std::string canonicalDouble(double v);

/** @p raw parsed and reformatted canonically for @p opt's type
 *  (booleans -> "true"/"false", numbers -> shortest text; strings
 *  unchanged). fatal() on a malformed value, naming @p what. */
std::string canonicalValue(const OptionDef &opt, const std::string &what,
                           const std::string &raw);

/**
 * Provenance of an option's *actual* value in a finished run:
 * sourceName(spec source) when the value the run used canonically
 * equals the resolved spec's, else "code" — the calling program set
 * it programmatically (tests, fig8's per-model loop).
 */
std::string provenanceFor(const RunSpec &spec, const OptionDef &opt,
                          const std::string &actual);

/**
 * Emit an effectiveConfig block: version, a typed "options" object,
 * and a parallel "provenance" object, over the given (name, actual
 * canonical value) rows — callers pass every affectsResults option in
 * registry order. The block is one object value, so it nests wherever
 * @p w stands (a member's value, or a whole document).
 */
void writeEffectiveConfigJson(
    json::Writer &w, const RunSpec &spec,
    const std::vector<std::pair<std::string, std::string>> &actual);

} // namespace config
} // namespace mcd

#endif // MCD_CONFIG_RUNSPEC_HH
