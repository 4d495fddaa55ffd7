#include "registry.hh"

#include <algorithm>
#include <mutex>
#include <ostream>

#include "common/log.hh"
#include "common/spec.hh"

namespace mcd {
namespace config {

const char *
typeName(Type t)
{
    switch (t) {
      case Type::Bool: return "bool";
      case Type::Int: return "int";
      case Type::U64: return "u64";
      case Type::Double: return "double";
      case Type::String: return "string";
      case Type::Path: return "path";
    }
    return "?";
}

const char *
sourceName(Source s)
{
    switch (s) {
      case Source::Default: return "default";
      case Source::File: return "file";
      case Source::Env: return "env";
      case Source::Flag: return "flag";
    }
    return "?";
}

namespace {

void
checkAtLeastOne(const OptionDef &, const std::string &what,
                const std::string &value)
{
    if (spec::parseInt(what, value) < 1)
        fatal(what + ": must be >= 1 (got '" + value + "')");
}

void
checkNonNegative(const OptionDef &, const std::string &what,
                 const std::string &value)
{
    if (spec::parseInt(what, value) < 0)
        fatal(what + ": must be >= 0 (got '" + value + "')");
}

void
checkSoakJobs(const OptionDef &, const std::string &what,
              const std::string &value)
{
    spec::parseInt(what, value, 1, kMaxSoakJobs);
}

/**
 * The whole configuration surface. Kept sorted by section then name;
 * the schema reference, the effectiveConfig block, and the rejection
 * messages all inherit this order, so it is part of the emitted-bytes
 * contract.
 */
const std::vector<OptionDef> table = {
    // --- matrix: shapes simulation results -------------------------
    {"benchmarks", "MCD_BENCHMARKS", "--benchmarks", Type::String, "",
     "Comma-separated benchmark subset to run (empty = all registered "
     "workloads); unknown names are fatal.", "matrix", true, nullptr},
    {"controllers", "MCD_CONTROLLERS", "--controllers", Type::String, "",
     "Comma-separated leg-name filter applied to the resolved leg set; "
     "unknown names are fatal, enumerating the available legs.",
     "matrix", true, nullptr},
    {"dilationHigh", "MCD_DILATION_HIGH", "--dilation-high",
     Type::Double, "0.05",
     "Dilation target of the dynamic-5% schedule-replay leg.",
     "matrix", true, nullptr},
    {"dilationLow", "MCD_DILATION_LOW", "--dilation-low", Type::Double,
     "0.01",
     "Dilation target of the dynamic-1% schedule-replay leg.",
     "matrix", true, nullptr},
    {"dvfsTimeScale", "MCD_DVFS_TIME_SCALE", "--dvfs-time-scale",
     Type::Double, "0.2",
     "DVFS transition-time shrink factor (DESIGN.md section 4, "
     "substitution 2).", "matrix", true, nullptr},
    {"faultPlan", "MCD_FAULT_PLAN", "--fault-plan", Type::String, "",
     "Fault-injection plan (FaultPlan grammar, e.g. "
     "'leg:adpcm/dyn1=throw'); empty = no injection.", "matrix", true,
     nullptr},
    {"invariants", "MCD_INVARIANTS", "--invariants", Type::String, "",
     "Telemetry invariant spec ('default' or a rule list); empty = "
     "engine off.", "matrix", true, nullptr},
    {"legAttempts", "MCD_LEG_ATTEMPTS", "--leg-attempts", Type::Int,
     "2",
     "Attempts the per-leg guard makes before recording a failure "
     "(only transient faults are retried).", "matrix", true,
     checkAtLeastOne},
    {"legs", "MCD_LEGS", "--legs", Type::String, "",
     "Explicit dynamic-control leg set (legsToSpec grammar); empty = "
     "the paper defaults or, under tournament, every registered "
     "controller.", "matrix", true, nullptr},
    {"model", "MCD_MODEL", "--model", Type::String, "",
     "DVFS scaling model (XScale or Transmeta); empty = the binary's "
     "built-in choice.", "matrix", true, nullptr},
    {"sampling", "MCD_SAMPLING", "--sampling", Type::String, "",
     "SMARTS-style sampled simulation spec "
     "(detailed=N,ff=N,warmup=N[,tol=F]); empty = full detail.",
     "matrix", true, nullptr},
    {"scale", "MCD_SCALE", "--scale", Type::Int, "1",
     "Workload scale factor (>= 1).", "matrix", true, checkAtLeastOne},
    {"seed", "MCD_SEED", "--seed", Type::U64, "1",
     "Root seed for per-run random streams.", "matrix", true, nullptr},
    {"tournament", "MCD_TOURNAMENT", "--tournament", Type::Bool, "0",
     "Run the registered-controller tournament leg set instead of the "
     "paper's default matrix.", "matrix", true, nullptr},
    {"watchdogEdges", "MCD_WATCHDOG_EDGES", "--watchdog-edges",
     Type::U64, "40000000",
     "Watchdog no-progress budget in clock edges (0 = off).", "matrix",
     true, nullptr},
    {"watchdogTicks", "MCD_WATCHDOG_TICKS", "--watchdog-ticks",
     Type::U64, "0",
     "Watchdog simulated-time budget in ticks (0 = unlimited).",
     "matrix", true, nullptr},

    // --- host: execution strategy, never result-shaping ------------
    {"cacheDir", "MCD_CACHE_DIR", "--cache-dir", Type::Path, "",
     "Experiment result-cache directory; explicitly empty disables "
     "caching (bench binaries default to .mcd-bench-cache when the "
     "option is left unset).", "host", false, nullptr},
    {"invariantsFatal", "MCD_INVARIANTS_FATAL", "--invariants-fatal",
     Type::Bool, "0",
     "Exit with code 5 when an otherwise-clean matrix recorded "
     "invariant violations (the violations themselves are always in "
     "the results JSON).", "host", false, nullptr},
    {"jobs", "MCD_JOBS", "--jobs", Type::Int, "0",
     "Worker threads for the matrix (0 = hardware concurrency; "
     "results are bit-identical for every value).", "host", false,
     checkNonNegative},

    // --- output: document routing ----------------------------------
    {"leaderboardJson", "MCD_LEADERBOARD_JSON", "--leaderboard-json",
     Type::Path, "",
     "Write the ranked controller leaderboard JSON to this path.",
     "output", false, nullptr},
    {"profOut", "MCD_PROF_OUT", "--prof-out", Type::Path, "",
     "Arm the host profiler and write its profile JSON to this path.",
     "output", false, nullptr},
    {"resultsJson", "MCD_RESULTS_JSON", "--results-json", Type::Path,
     "",
     "Write the matrix results JSON (with its effectiveConfig block) "
     "to this path.", "output", false, nullptr},
    {"statsOut", "MCD_STATS_OUT", "--stats-out", Type::Path, "",
     "Write merged telemetry stats JSON to this path (implies full "
     "telemetry collection).", "output", false, nullptr},
    {"traceOut", "MCD_TRACE_OUT", "--trace-out", Type::Path, "",
     "Write a merged Chrome trace to this path (implies full "
     "telemetry collection).", "output", false, nullptr},

    // --- soak: the fuzz soak driver --------------------------------
    {"soakBudget", "MCD_SOAK_BUDGET", "--soak-budget", Type::Int, "25",
     "Scenario tuples to run in one soak invocation.", "soak", false,
     checkNonNegative},
    {"soakJobs", "MCD_SOAK_JOBS", "--soak-jobs", Type::Int, "1",
     "Divergence-check job count for ok soak tuples.", "soak", false,
     checkSoakJobs},
    {"soakOut", "MCD_SOAK_OUT", "--soak-out", Type::Path, "",
     "Soak output directory (journal + minimized repro corpus).",
     "soak", false, nullptr},
    {"soakPlant", "MCD_SOAK_PLANT", "--soak-plant", Type::String, "",
     "Planted-fault plan for the soak canary channel (FaultPlan "
     "grammar, '@' = benchmark).", "soak", false, nullptr},
    {"soakSeed", "MCD_SOAK_SEED", "--soak-seed", Type::U64, "1",
     "Root seed of the soak tuple stream.", "soak", false, nullptr},

    // --- meta: the config layer itself -----------------------------
    {"config", "MCD_CONFIG", "--config", Type::Path, "",
     "Load a mcd-runspec-v1 JSON document as the config-file layer "
     "(defaults < file < env < flags).", "meta", false, nullptr},
};

std::mutex overrideMutex;
std::vector<std::pair<std::string, std::string>> overrides;

} // namespace

const std::vector<OptionDef> &
options()
{
    return table;
}

const OptionDef *
find(std::string_view name)
{
    for (const OptionDef &o : table) {
        if (name == o.name)
            return &o;
    }
    return nullptr;
}

const OptionDef *
findByEnv(std::string_view env)
{
    for (const OptionDef &o : table) {
        if (env == o.env)
            return &o;
    }
    return nullptr;
}

const OptionDef *
findByFlag(std::string_view flag)
{
    for (const OptionDef &o : table) {
        if (flag == o.flag)
            return &o;
    }
    return nullptr;
}

namespace {

std::string
joined(const char *OptionDef::*field)
{
    std::string out;
    for (const OptionDef &o : table) {
        if (!out.empty())
            out += ", ";
        out += o.*field;
    }
    return out;
}

} // namespace

std::string
validNames()
{
    return joined(&OptionDef::name);
}

std::string
validEnvNames()
{
    return joined(&OptionDef::env);
}

void
writeSchemaMarkdown(std::ostream &os)
{
    os << "# Configuration reference\n"
       << "\n"
       << "Generated by `--dump-config-schema` from the option "
          "registry\n"
       << "(`src/config/registry.cc`). Do not edit by hand — CI "
          "regenerates\n"
       << "this file and fails on drift.\n"
       << "\n"
       << "Resolution layers, lowest to highest precedence: built-in "
          "default\n"
       << "< config file (`--config` / `MCD_CONFIG`, a "
          "`mcd-runspec-v1` JSON\n"
       << "document) < environment variable < CLI flag. Booleans are "
          "value-\n"
       << "checked (`0/false/no/off` vs `1/true/yes/on`; DESIGN.md "
          "§15), and\n"
       << "unregistered `MCD_*` environment variables warn once.\n";
    const char *section = "";
    const char *blurb[] = {
        "matrix", "Result-shaping options; these (and only these) "
        "appear in every run's `effectiveConfig` block.",
        "host", "Host execution strategy; never changes results.",
        "output", "Document routing; never changes results.",
        "soak", "The `mcd_soak` fuzz driver.",
        "meta", "The configuration layer itself.",
    };
    for (const OptionDef &o : table) {
        if (std::string_view(section) != o.section) {
            section = o.section;
            os << "\n## " << section << "\n\n";
            for (std::size_t i = 0; i + 1 < std::size(blurb); i += 2) {
                if (std::string_view(blurb[i]) == section)
                    os << blurb[i + 1] << "\n\n";
            }
            os << "| option | env | flag | type | default | "
                  "description |\n"
               << "|---|---|---|---|---|---|\n";
        }
        os << "| `" << o.name << "` | `" << o.env << "` | `" << o.flag
           << "` | " << typeName(o.type) << " | "
           << (*o.defaultValue ? ("`" + std::string(o.defaultValue) +
                                  "`")
                               : std::string("(empty)"))
           << " | " << o.doc << " |\n";
    }
}

void
setFlagOverride(const std::string &name, std::string value)
{
    if (!find(name))
        fatal("config: unknown option '" + name + "' (valid: " +
              validNames() + ")");
    std::lock_guard<std::mutex> lk(overrideMutex);
    for (auto &[n, v] : overrides) {
        if (n == name) {
            v = std::move(value);
            return;
        }
    }
    overrides.emplace_back(name, std::move(value));
}

void
clearFlagOverrides()
{
    std::lock_guard<std::mutex> lk(overrideMutex);
    overrides.clear();
}

std::vector<std::pair<std::string, std::string>>
flagOverrides()
{
    std::lock_guard<std::mutex> lk(overrideMutex);
    return overrides;
}

} // namespace config
} // namespace mcd
