#include "scenario.hh"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "common/spec.hh"
#include "config/jsonlite.hh"
#include "config/registry.hh"
#include "config/runspec.hh"

namespace mcd {
namespace fuzz {

namespace {

/** Replace every "@" in a fault spec with the benchmark name. */
std::string
expandAt(const std::string &spec, const std::string &bench)
{
    std::string out;
    for (char c : spec) {
        if (c == '@')
            out += bench;
        else
            out += c;
    }
    return out;
}

/** The option names a scenario may set, besides legs and faultPlan
 *  (which have fields of their own). */
bool
isDimension(std::string_view name)
{
    constexpr std::string_view names[] = {
        "dilationHigh", "dilationLow",   "dvfsTimeScale",
        "legAttempts",  "model",         "sampling",
        "seed",         "watchdogEdges", "watchdogTicks",
    };
    return std::find(std::begin(names), std::end(names), name) !=
        std::end(names);
}

} // namespace

std::string
Scenario::expandedFaults() const
{
    std::string joined = faultSpec;
    if (!plantedSpec.empty()) {
        if (!joined.empty())
            joined += ";";
        joined += plantedSpec;
    }
    return expandAt(joined, benchName());
}

ExperimentConfig
Scenario::toConfig() const
{
    internWorkload(workload);

    ExperimentConfig cfg;
    cfg.scale = 1;
    cfg.cacheDir.clear();               // soak runs are never cached
    cfg.telemetry.invariants = "default";

    auto apply = [&](const std::string &name, const std::string &text) {
        configOption(name).read(cfg, "Scenario config: " + name, text);
    };
    for (const auto &[name, text] : options) {
        if (!isDimension(name))
            fatal("Scenario config: unknown option '" + name + "'");
        apply(name, text);
    }
    apply("legs", legsSpec);
    apply("faultPlan", expandedFaults());
    return cfg;
}

const char *const reproVersion = "mcd-repro-v2";

void
writeRepro(std::ostream &os, const Scenario &s,
           const std::string &signature)
{
    // The scenario's experiment dimensions are serialized as a
    // mcd-runspec-v1 options object (the same surface --config files
    // use), with every value a JSON *string* so the exact text —
    // "0.050000" included — round-trips byte-identically. Only the
    // options the scenario sets appear; absent ones mean the
    // ExperimentConfig defaults.
    std::map<std::string, std::string> opts = s.options;
    opts["legs"] = s.legsSpec;
    opts["faultPlan"] = s.faultSpec;

    json::Writer w(os);
    w.beginObject()
        .field("version", reproVersion)
        .field("signature", signature)
        .field("workload", s.workload.spec())
        .field("planted", s.plantedSpec)
        .field("jobs", s.jobs);
    w.key("runspec").beginObject()
        .field("version", config::runSpecVersion);
    w.key("options").beginObject();
    for (const auto &[name, value] : opts)
        w.field(name, value);
    w.endObject().endObject().endObject();
    os << '\n';
}

std::optional<Repro>
readRepro(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    config::jsonlite::Value doc;
    std::string err;
    if (!config::jsonlite::parse(buf.str(), doc, err) ||
        doc.kind != config::jsonlite::Value::Kind::Object)
        return std::nullopt;
    auto field = [&](const char *key)
        -> const config::jsonlite::Value * {
        return doc.find(key);
    };
    const auto *version = field("version");
    if (!version || version->text != reproVersion)
        return std::nullopt;
    const auto *signature = field("signature");
    const auto *workload = field("workload");
    const auto *planted = field("planted");
    const auto *jobs = field("jobs");
    const auto *runspec = field("runspec");
    if (!signature || !workload || !planted || !jobs || !runspec ||
        runspec->kind != config::jsonlite::Value::Kind::Object)
        return std::nullopt;
    const auto *rsVersion = runspec->find("version");
    const auto *options = runspec->find("options");
    if (!rsVersion || rsVersion->text != config::runSpecVersion ||
        !options ||
        options->kind != config::jsonlite::Value::Kind::Object)
        return std::nullopt;

    Repro r;
    r.signature = signature->text;
    r.scenario.workload = GenParams::fromSpec(workload->text);
    r.scenario.plantedSpec = planted->text;
    try {
        r.scenario.jobs = static_cast<int>(spec::parseInt(
            "repro jobs", jobs->text, 1, config::kMaxSoakJobs));
    } catch (const FatalError &) {
        return std::nullopt;
    }

    for (const auto &[name, value] : options->members) {
        if (name == "legs")
            r.scenario.legsSpec = value.text;
        else if (name == "faultPlan")
            r.scenario.faultSpec = value.text;
        else if (isDimension(name))
            r.scenario.options[name] = value.text;
        else
            return std::nullopt;    // not an experiment dimension
    }
    return r;
}

} // namespace fuzz
} // namespace mcd
