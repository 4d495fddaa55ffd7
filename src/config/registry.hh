/**
 * @file
 * The typed option registry: every configuration knob in the tree as
 * one table, plus the process-wide CLI flag-override store that forms
 * the top layer of RunSpec resolution.
 */

#ifndef MCD_CONFIG_REGISTRY_HH
#define MCD_CONFIG_REGISTRY_HH

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "config/option.hh"

namespace mcd {
namespace config {

/** Upper bound of the soakJobs option, and so of the jobs field of
 *  every repro file the soak writes (readRepro rejects larger). */
constexpr int kMaxSoakJobs = 64;

/** Every registered option, sorted by (section, name). */
const std::vector<OptionDef> &options();

/** Lookup by canonical name / env alias / CLI flag; nullptr when
 *  unknown. */
const OptionDef *find(std::string_view name);
const OptionDef *findByEnv(std::string_view env);
const OptionDef *findByFlag(std::string_view flag);

/** Comma-joined valid names / env aliases, for rejection messages. */
std::string validNames();
std::string validEnvNames();

/**
 * The generated schema reference (--dump-config-schema): one markdown
 * table per section with name, env, flag, type, default, and doc
 * columns. docs/config-reference.md is this output, committed; CI
 * regenerates it and fails on drift.
 */
void writeSchemaMarkdown(std::ostream &os);

/**
 * CLI flag overrides: the highest-precedence resolution layer.
 * Binaries record parsed flags here (by option *name*), then every
 * subsequent RunSpec::resolve() sees them. fatal() on unknown names.
 */
void setFlagOverride(const std::string &name, std::string value);

/** Drop all flag overrides (tests; also sensible between argv
 *  re-parses). */
void clearFlagOverrides();

/** The current overrides as (name, value) pairs, in set order. */
std::vector<std::pair<std::string, std::string>> flagOverrides();

} // namespace config
} // namespace mcd

#endif // MCD_CONFIG_REGISTRY_HH
