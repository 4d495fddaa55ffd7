#include "scenario.hh"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

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

/** configSpec's ';'-joined k=v items, in order. */
std::vector<std::pair<std::string, std::string>>
configItems(const std::string &configSpec)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const std::string &item : spec::split(configSpec, ';'))
        out.push_back(spec::keyValue("Scenario config", item));
    return out;
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

    for (const auto &[key, val] : configItems(configSpec)) {
        const std::string what = "Scenario config: " + key;
        if (key == "model") {
            auto kind = dvfsKindFromName(val);
            if (!kind)
                fatal("Scenario config: unknown DVFS model '" + val +
                      "' (choices: " + dvfsKindNames() + ")");
            cfg.model = *kind;
        } else if (key == "timescale") {
            cfg.dvfsTimeScale = spec::parseDouble(what, val);
        } else if (key == "dillo") {
            cfg.dilationLow = spec::parseDouble(what, val);
        } else if (key == "dilhi") {
            cfg.dilationHigh = spec::parseDouble(what, val);
        } else if (key == "seed") {
            cfg.seed = spec::parseU64(what, val);
        } else if (key == "attempts") {
            cfg.legAttempts = static_cast<int>(spec::parseInt(
                what, val, 0, std::numeric_limits<int>::max()));
        } else if (key == "wdedges") {
            cfg.watchdogNoProgressEdges = spec::parseU64(what, val);
        } else if (key == "wdticks") {
            cfg.watchdogMaxTicks = spec::parseU64(what, val);
        } else if (key == "sampling") {
            cfg.sampling = SamplingParams::fromSpec(val);
        } else {
            fatal("Scenario config: unknown key '" + key + "'");
        }
    }

    cfg.legs = legsFromSpec(legsSpec);

    std::string faults = expandedFaults();
    if (!faults.empty())
        cfg.faults = std::make_shared<const fault::FaultPlan>(
            fault::FaultPlan::parse(faults));
    return cfg;
}

const char *const reproVersion = "mcd-repro-v2";

namespace {

/**
 * The configSpec k=v keys and their RunSpec option names, in the
 * canonical configSpec order (writeRepro sorts by option name
 * itself).
 */
constexpr std::pair<const char *, const char *> configSpecKeys[] = {
    {"model", "model"},           {"timescale", "dvfsTimeScale"},
    {"dillo", "dilationLow"},     {"dilhi", "dilationHigh"},
    {"seed", "seed"},             {"attempts", "legAttempts"},
    {"wdedges", "watchdogEdges"}, {"wdticks", "watchdogTicks"},
    {"sampling", "sampling"},
};

const char *
optionNameForSpecKey(const std::string &key)
{
    for (const auto &[specKey, option] : configSpecKeys) {
        if (key == specKey)
            return option;
    }
    return nullptr;
}

const char *
specKeyForOptionName(const std::string &option)
{
    for (const auto &[specKey, opt] : configSpecKeys) {
        if (option == opt)
            return specKey;
    }
    return nullptr;
}

} // namespace

void
writeRepro(std::ostream &os, const Scenario &s,
           const std::string &signature)
{
    // The scenario's experiment dimensions are serialized as a
    // mcd-runspec-v1 options object (the same surface --config files
    // use), with every value a JSON *string* so the exact spec text —
    // "0.050000" included — round-trips byte-identically. Only the
    // keys present in configSpec appear; absent keys mean the
    // ExperimentConfig defaults, exactly as in the spec grammar.
    std::vector<std::pair<std::string, std::string>> opts;
    for (auto &[key, val] : configItems(s.configSpec)) {
        const char *name = optionNameForSpecKey(key);
        if (!name)
            fatal("Scenario config: unknown key '" + key + "'");
        opts.emplace_back(name, std::move(val));
    }
    opts.emplace_back("legs", s.legsSpec);
    opts.emplace_back("faultPlan", s.faultSpec);
    std::sort(opts.begin(), opts.end());

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

    // Rebuild the spec strings. configSpec keys come back in the
    // canonical key-table order regardless of the file's key order,
    // so a rewritten repro is byte-stable.
    for (const auto &[name, value] : options->members) {
        if (name == "legs" || name == "faultPlan")
            continue;
        if (!specKeyForOptionName(name))
            return std::nullopt;    // not an experiment dimension
    }
    std::string configSpec;
    for (const auto &[specKey, option] : configSpecKeys) {
        if (const auto *v = options->find(option)) {
            if (!configSpec.empty())
                configSpec += ";";
            configSpec += std::string(specKey) + "=" + v->text;
        }
    }
    r.scenario.configSpec = configSpec;
    if (const auto *v = options->find("legs"))
        r.scenario.legsSpec = v->text;
    if (const auto *v = options->find("faultPlan"))
        r.scenario.faultSpec = v->text;
    return r;
}

} // namespace fuzz
} // namespace mcd
