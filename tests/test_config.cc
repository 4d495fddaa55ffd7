/**
 * @file
 * The unified typed configuration layer: strict defaults < config
 * file < env < flags precedence with per-option provenance, the
 * value-checked boolean rule, empty-env semantics, unknown-key and
 * invalid-value rejection, the unregistered-MCD_* environment canary,
 * exact RunSpec JSON round-trips, schema generation, and the
 * env-vs-config-file / effectiveConfig-feed-back byte-identity of a
 * real adpcm+mst matrix; and, for every text sub-grammar (lists,
 * sampling, legs, controller params, fault plans, invariants, fuzz
 * workloads, scenario configs, repro files), an accept table, a
 * reject table and a seeded byte-mutation test.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "config/jsonlite.hh"
#include "config/registry.hh"
#include "config/runspec.hh"
#include "control/registry.hh"
#include "core/experiment.hh"
#include "core/sampling.hh"
#include "fault/fault_plan.hh"
#include "fuzz/scenario.hh"
#include "fuzz/soak.hh"
#include "fuzz/workload_gen.hh"
#include "obs/invariants.hh"

namespace mcd {
namespace {

namespace fs = std::filesystem;

/** Scoped cleanup: clear flag overrides and every MCD_* variable a
 *  test sets, so resolution state never leaks between tests. */
struct ConfigSandbox
{
    std::vector<std::string> vars;

    void
    set(const char *var, const std::string &value)
    {
        ::setenv(var, value.c_str(), 1);
        vars.emplace_back(var);
    }

    ~ConfigSandbox()
    {
        for (const std::string &v : vars)
            ::unsetenv(v.c_str());
        config::clearFlagOverrides();
    }
};

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const fs::path &p, const std::string &text)
{
    std::ofstream out(p, std::ios::binary);
    out << text;
}

fs::path
freshDir(const char *name)
{
    fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A per-type (file, env, flag) value triple that passes every
 *  registered validator and keeps the three layers distinguishable
 *  by raw text. */
struct LayerValues
{
    const char *file;
    const char *env;
    const char *flag;
};

LayerValues
layerValues(config::Type t)
{
    switch (t) {
      case config::Type::Bool: return {"1", "true", "yes"};
      case config::Type::Int: return {"3", "5", "7"};
      case config::Type::U64: return {"11", "13", "17"};
      case config::Type::Double: return {"0.11", "0.13", "0.17"};
      case config::Type::String:
      case config::Type::Path: return {"fromfile", "fromenv",
                                       "fromflag"};
    }
    return {"x", "y", "z"};
}

/** A one-option mcd-runspec-v1 document. */
std::string
oneOptionDoc(const std::string &name, const std::string &value)
{
    return std::string("{\"version\": \"") + config::runSpecVersion +
        "\", \"options\": {\"" + name + "\": " + json::quote(value) +
        "}}";
}

TEST(RunSpec, DefaultsResolveWithDefaultProvenance)
{
    ConfigSandbox sandbox;
    const config::RunSpec spec = config::RunSpec::resolve();
    for (const config::OptionDef &o : config::options()) {
        EXPECT_TRUE(spec.isDefault(o.name)) << o.name;
        EXPECT_EQ(spec.str(o.name), o.defaultValue) << o.name;
        EXPECT_EQ(spec.source(o.name), config::Source::Default)
            << o.name;
    }
}

TEST(RunSpec, PrecedenceAndProvenancePerOption)
{
    // Every registered option individually: flag beats env beats
    // config file beats default, with the provenance recording each
    // winning layer. The "config" meta-option is the file path itself
    // and is exercised by every file-layer assertion below.
    fs::path dir = freshDir("mcd-config-precedence");
    for (const config::OptionDef &o : config::options()) {
        if (std::string_view(o.name) == "config")
            continue;
        SCOPED_TRACE(o.name);
        LayerValues v = layerValues(o.type);
        fs::path file = dir / (std::string(o.name) + ".json");
        writeFile(file, oneOptionDoc(o.name, v.file));

        ConfigSandbox sandbox;
        sandbox.set("MCD_CONFIG", file.string());

        // File layer alone.
        config::RunSpec spec = config::RunSpec::resolve();
        EXPECT_EQ(spec.str(o.name), v.file);
        EXPECT_EQ(spec.source(o.name), config::Source::File);

        // Env overrides file.
        sandbox.set(o.env, v.env);
        spec = config::RunSpec::resolve();
        EXPECT_EQ(spec.str(o.name), v.env);
        EXPECT_EQ(spec.source(o.name), config::Source::Env);

        // Flag overrides env.
        config::setFlagOverride(o.name, v.flag);
        spec = config::RunSpec::resolve();
        EXPECT_EQ(spec.str(o.name), v.flag);
        EXPECT_EQ(spec.source(o.name), config::Source::Flag);
    }
    fs::remove_all(dir);
}

TEST(RunSpec, EmptyEnvMeansUnsetForNumbersExplicitForStrings)
{
    // CI wrappers "clear" variables with VAR=; for numeric options
    // that must mean unset, while an empty string/path/bool stays an
    // explicit value (MCD_CACHE_DIR= disables caching).
    ConfigSandbox sandbox;
    sandbox.set("MCD_SEED", "");
    sandbox.set("MCD_SCALE", "");
    sandbox.set("MCD_DILATION_HIGH", "");
    sandbox.set("MCD_CACHE_DIR", "");
    sandbox.set("MCD_TOURNAMENT", "");
    const config::RunSpec spec = config::RunSpec::resolve();
    EXPECT_TRUE(spec.isDefault("seed"));
    EXPECT_TRUE(spec.isDefault("scale"));
    EXPECT_TRUE(spec.isDefault("dilationHigh"));
    EXPECT_EQ(spec.source("cacheDir"), config::Source::Env);
    EXPECT_EQ(spec.str("cacheDir"), "");
    EXPECT_EQ(spec.source("tournament"), config::Source::Env);
    EXPECT_FALSE(spec.boolean("tournament"));
}

TEST(RunSpec, BooleansAreValueCheckedNotPresenceChecked)
{
    // DESIGN.md §15: MCD_TOURNAMENT=0 really is false — the historic
    // presence-checked reading is gone everywhere.
    for (const char *f : {"", "0", "false", "no", "off"}) {
        ConfigSandbox sandbox;
        sandbox.set("MCD_TOURNAMENT", f);
        EXPECT_FALSE(config::RunSpec::resolve().boolean("tournament"))
            << "'" << f << "'";
    }
    for (const char *t : {"1", "true", "yes", "on"}) {
        ConfigSandbox sandbox;
        sandbox.set("MCD_TOURNAMENT", t);
        EXPECT_TRUE(config::RunSpec::resolve().boolean("tournament"))
            << "'" << t << "'";
    }
    ConfigSandbox sandbox;
    sandbox.set("MCD_TOURNAMENT", "maybe");
    EXPECT_THROW(config::RunSpec::resolve(), FatalError);
}

TEST(RunSpec, RejectsEveryInvalidValueAndUnknownKeyPath)
{
    fs::path dir = freshDir("mcd-config-reject");

    auto fatalMessage = [&](const std::function<void()> &body) {
        try {
            body();
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        ADD_FAILURE() << "expected FatalError";
        return std::string();
    };

    {   // Unknown option name in a config file enumerates the
        // valid names.
        ConfigSandbox sandbox;
        fs::path f = dir / "unknown-option.json";
        writeFile(f, oneOptionDoc("benchmurks", "adpcm"));
        sandbox.set("MCD_CONFIG", f.string());
        std::string msg =
            fatalMessage([] { config::RunSpec::resolve(); });
        EXPECT_NE(msg.find("benchmurks"), std::string::npos) << msg;
        EXPECT_NE(msg.find("benchmarks"), std::string::npos) << msg;
        EXPECT_NE(msg.find("valid"), std::string::npos) << msg;
    }
    {   // Unknown top-level key.
        ConfigSandbox sandbox;
        fs::path f = dir / "unknown-top.json";
        writeFile(f, std::string("{\"version\": \"") +
                         config::runSpecVersion +
                         "\", \"extras\": {}}");
        sandbox.set("MCD_CONFIG", f.string());
        EXPECT_THROW(config::RunSpec::resolve(), FatalError);
    }
    {   // Version mismatch.
        ConfigSandbox sandbox;
        fs::path f = dir / "bad-version.json";
        writeFile(f, "{\"version\": \"mcd-runspec-v0\", "
                     "\"options\": {}}");
        sandbox.set("MCD_CONFIG", f.string());
        EXPECT_THROW(config::RunSpec::resolve(), FatalError);
    }
    {   // A config file cannot chain to another config file.
        ConfigSandbox sandbox;
        fs::path f = dir / "chain.json";
        writeFile(f, oneOptionDoc("config", "elsewhere.json"));
        sandbox.set("MCD_CONFIG", f.string());
        EXPECT_THROW(config::RunSpec::resolve(), FatalError);
    }
    {   // Malformed JSON and a missing file are fatal, not ignored.
        ConfigSandbox sandbox;
        fs::path f = dir / "malformed.json";
        writeFile(f, "{\"version\": ");
        sandbox.set("MCD_CONFIG", f.string());
        EXPECT_THROW(config::RunSpec::resolve(), FatalError);
        sandbox.set("MCD_CONFIG", (dir / "nope.json").string());
        EXPECT_THROW(config::RunSpec::resolve(), FatalError);
    }
    {   // Type errors, named by the layer that supplied them.
        ConfigSandbox sandbox;
        sandbox.set("MCD_SEED", "not-a-number");
        std::string msg =
            fatalMessage([] { config::RunSpec::resolve(); });
        EXPECT_NE(msg.find("MCD_SEED"), std::string::npos) << msg;
    }
    {   // Range validators.
        ConfigSandbox sandbox;
        sandbox.set("MCD_SCALE", "0");
        EXPECT_THROW(config::RunSpec::resolve(), FatalError);
    }
    {   // All defects are collected into one message, fuzz-triage
        // style, not reported serially.
        ConfigSandbox sandbox;
        sandbox.set("MCD_SCALE", "0");
        sandbox.set("MCD_DILATION_LOW", "huh");
        std::string msg =
            fatalMessage([] { config::RunSpec::resolve(); });
        EXPECT_NE(msg.find("2 invalid settings"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("MCD_SCALE"), std::string::npos) << msg;
        EXPECT_NE(msg.find("MCD_DILATION_LOW"), std::string::npos)
            << msg;
    }
    {   // Unknown option names are rejected at the flag store too.
        ConfigSandbox sandbox;
        EXPECT_THROW(config::setFlagOverride("benchmurks", "x"),
                     FatalError);
    }
    fs::remove_all(dir);
}

TEST(RunSpec, UnregisteredEnvVarsAreRecordedAndWarned)
{
    ConfigSandbox sandbox;
    sandbox.set("MCD_TYPO_XYZ", "1");
    config::RunSpec spec = config::RunSpec::resolve();
    ASSERT_EQ(spec.unknownEnv.size(), 1u);
    EXPECT_EQ(spec.unknownEnv[0], "MCD_TYPO_XYZ");
}

TEST(RunSpec, SchemaReferenceListsEveryOption)
{
    std::ostringstream os;
    config::writeSchemaMarkdown(os);
    std::string schema = os.str();
    for (const config::OptionDef &o : config::options()) {
        EXPECT_NE(schema.find("`" + std::string(o.name) + "`"),
                  std::string::npos) << o.name;
        EXPECT_NE(schema.find("`" + std::string(o.env) + "`"),
                  std::string::npos) << o.env;
        EXPECT_NE(schema.find("`" + std::string(o.flag) + "`"),
                  std::string::npos) << o.flag;
    }
}

TEST(RunSpec, ProvenanceForDistinguishesCodeFromLayers)
{
    ConfigSandbox sandbox;
    const config::RunSpec spec = config::RunSpec::resolve();
    const config::OptionDef *scale = config::find("scale");
    ASSERT_NE(scale, nullptr);
    EXPECT_EQ(config::provenanceFor(spec, *scale, "1"), "default");
    // A programmatic value the spec never supplied is attributed to
    // code, not to any resolution layer.
    EXPECT_EQ(config::provenanceFor(spec, *scale, "2"), "code");
    // Canonical comparison: "0.050" and the default "0.05" are the
    // same double.
    const config::OptionDef *dil = config::find("dilationHigh");
    ASSERT_NE(dil, nullptr);
    EXPECT_EQ(config::provenanceFor(spec, *dil, "0.050"), "default");
}

TEST(RunSpec, EffectiveConfigJsonRoundTripsExactly)
{
    // Property test: random option subsets with random typed values,
    // seeded from the shared deterministic stream primitive. The
    // emitted effectiveConfig document, fed back as --config, must
    // resolve to canonically identical values AND re-emit
    // byte-identically (a fixed point after one canonicalization).
    fs::path dir = freshDir("mcd-config-roundtrip");
    Rng rng(streamSeed(1, "config-roundtrip-test"));

    std::vector<const config::OptionDef *> pool;
    for (const config::OptionDef &o : config::options())
        if (o.affectsResults)
            pool.push_back(&o);

    for (int iter = 0; iter < 32; ++iter) {
        SCOPED_TRACE(iter);
        std::vector<std::pair<std::string, std::string>> actual;
        for (const config::OptionDef *o : pool) {
            if (rng.uniform() < 0.4)
                continue;
            std::string v;
            switch (o->type) {
              case config::Type::Bool:
                v = rng.uniform() < 0.5 ? "true" : "false";
                break;
              case config::Type::Int:
                v = std::to_string(1 + rng.uniformInt(9));
                break;
              case config::Type::U64:
                v = std::to_string(rng.next());
                break;
              case config::Type::Double:
                v = config::canonicalDouble(
                    rng.uniformRange(0.001, 0.999));
                break;
              case config::Type::String:
              case config::Type::Path:
                v = "s" + std::to_string(rng.uniformInt(1000));
                break;
            }
            actual.emplace_back(o->name, v);
        }

        ConfigSandbox sandbox;
        std::ostringstream doc1;
        json::Writer w1(doc1);
        config::writeEffectiveConfigJson(
            w1, config::RunSpec::resolve(), actual);

        fs::path f1 = dir / "doc1.json";
        writeFile(f1, doc1.str());
        sandbox.set("MCD_CONFIG", f1.string());
        const config::RunSpec loaded = config::RunSpec::resolve();
        for (const auto &[name, value] : actual) {
            const config::OptionDef *o = config::find(name);
            EXPECT_EQ(config::canonicalValue(*o, name,
                                             loaded.str(name)),
                      config::canonicalValue(*o, name, value))
                << name;
            EXPECT_EQ(loaded.source(name), config::Source::File)
                << name;
        }

        // Fixed point: re-emitting the loaded spec reproduces the
        // document byte for byte (provenance is all "file" now, so
        // compare the version+options prefix, which ends where
        // "provenance" begins).
        std::vector<std::pair<std::string, std::string>> actual2;
        for (const auto &[name, value] : actual)
            actual2.emplace_back(name, loaded.str(name));
        std::ostringstream doc2;
        json::Writer w2(doc2);
        config::writeEffectiveConfigJson(w2, loaded, actual2);
        std::string a = doc1.str(), b = doc2.str();
        a.resize(a.find("\"provenance\""));
        b.resize(b.find("\"provenance\""));
        EXPECT_EQ(a, b);
    }
    fs::remove_all(dir);
}

/** Erase the provenance object (the only intentionally differing
 *  bytes) from an emitted document before byte comparison. */
std::string
stripProvenance(std::string text)
{
    std::size_t at = text.find("\"provenance\"");
    while (at != std::string::npos) {
        std::size_t open = text.find('{', at);
        int depth = 1;
        std::size_t close = open + 1;
        while (close < text.size() && depth > 0) {
            if (text[close] == '{')
                ++depth;
            else if (text[close] == '}')
                --depth;
            ++close;
        }
        text.erase(at, close - at);
        at = text.find("\"provenance\"");
    }
    return text;
}

TEST(RunSpec, EnvConfigFileAndFeedBackRunsAreByteIdentical)
{
    // The load-bearing contract of the whole layer, on a real matrix:
    // (1) the legacy env-var surface and an equivalent --config file
    // produce byte-identical results JSON (modulo provenance), and
    // (2) feeding a run's own emitted effectiveConfig block back as
    // the config file reproduces the run byte-identically.
    fs::path dir = freshDir("mcd-config-byteident");

    auto runOnce = [&](const char *tag) {
        fs::path results = dir / (std::string(tag) + ".json");
        ::setenv("MCD_RESULTS_JSON", results.c_str(), 1);
        std::vector<std::string> names =
            benchmarkNamesFromSpec(config::RunSpec::resolve());
        ExperimentConfig ec;    // empty cacheDir: caching disabled
        runMatrix(ec, names, 1);
        ::unsetenv("MCD_RESULTS_JSON");
        return slurp(results);
    };

    std::string viaEnv;
    {
        ConfigSandbox sandbox;
        sandbox.set("MCD_BENCHMARKS", "adpcm,mst");
        viaEnv = runOnce("env");
    }
    ASSERT_FALSE(viaEnv.empty());
    EXPECT_NE(viaEnv.find("\"effectiveConfig\""), std::string::npos);
    EXPECT_NE(viaEnv.find("\"benchmarks\": \"adpcm,mst\""),
              std::string::npos);
    EXPECT_NE(viaEnv.find("\"benchmarks\": \"env\""),
              std::string::npos);

    std::string viaFile;
    {
        ConfigSandbox sandbox;
        fs::path f = dir / "config.json";
        writeFile(f, oneOptionDoc("benchmarks", "adpcm,mst"));
        sandbox.set("MCD_CONFIG", f.string());
        viaFile = runOnce("file");
    }
    EXPECT_EQ(stripProvenance(viaEnv), stripProvenance(viaFile))
        << "env-var and config-file runs diverged";

    // Extract the effectiveConfig block (a complete mcd-runspec-v1
    // document) and feed it back verbatim.
    std::string viaFeedback;
    {
        std::size_t key = viaEnv.find("\"effectiveConfig\"");
        ASSERT_NE(key, std::string::npos);
        std::size_t open = viaEnv.find('{', key);
        int depth = 1;
        std::size_t close = open + 1;
        while (close < viaEnv.size() && depth > 0) {
            if (viaEnv[close] == '{')
                ++depth;
            else if (viaEnv[close] == '}')
                --depth;
            ++close;
        }
        // Not "feedback.json": runOnce("feedback") writes its results
        // there, and the results writer must not clobber the config
        // it is still resolving.
        fs::path f = dir / "feedback-config.json";
        writeFile(f, viaEnv.substr(open, close - open));

        ConfigSandbox sandbox;
        sandbox.set("MCD_CONFIG", f.string());
        viaFeedback = runOnce("feedback");
    }
    EXPECT_EQ(stripProvenance(viaEnv), stripProvenance(viaFeedback))
        << "feeding a run's effectiveConfig back did not reproduce it";

    fs::remove_all(dir);
}

// --- the text sub-grammars ---------------------------------------------

/** The committed repro files: the repro grammar's valid examples. */
std::vector<std::string>
corpusTexts()
{
    std::vector<fs::path> paths;
    for (const auto &e :
         fs::directory_iterator(fs::path(MCD_SOURCE_DIR) / "tests/corpus"))
        if (e.path().extension() == ".json")
            paths.push_back(e.path());
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> out;
    for (const fs::path &p : paths)
        out.push_back(slurp(p));
    return out;
}

std::optional<fuzz::Repro>
reproFromText(const std::string &text)
{
    std::istringstream in(text);
    return fuzz::readRepro(in);
}

/** A minimal repro whose "jobs" member is the raw JSON @p jobs. */
std::string
reproWithJobs(const std::string &jobs)
{
    return std::string("{\"version\": \"") + fuzz::reproVersion +
        "\", \"signature\": \"ok\", \"workload\": "
        "\"seed=5;phase=int:1500:4:256:1:50\", \"planted\": \"\", "
        "\"jobs\": " + jobs + ", \"runspec\": {\"version\": \"" +
        config::runSpecVersion + "\", \"options\": {}}}\n";
}

const char *const goldenLegs =
    "dyn1~dynamic-1%=replay:0.01|dyn5~dynamic-5%=replay:0.05|"
    "global=global:dyn5|online=ctrl:online-queue";

TEST(SpecGrammars, AcceptTableParsesToTheDocumentedValues)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(config::splitList("adpcm,mst"), (V{"adpcm", "mst"}));
    EXPECT_EQ(config::splitList(",dyn5,,online,"), (V{"dyn5", "online"}));
    EXPECT_EQ(config::splitList(""), V{});

    SamplingParams sp =
        SamplingParams::fromSpec("detailed=1000,ff=9000,warmup=250");
    EXPECT_EQ(sp.detailedInsts, 1000u);
    EXPECT_EQ(sp.ffInsts, 9000u);
    EXPECT_EQ(sp.warmupInsts, 250u);
    EXPECT_EQ(sp.tolerance, SamplingParams{}.tolerance);
    sp = SamplingParams::fromSpec("detailed=2000,ff=18000,warmup=500,"
                                  "tol=0.05");
    EXPECT_EQ(sp.ffInsts, 18000u);
    EXPECT_EQ(sp.tolerance, 0.05);

    std::vector<LegSpec> legs = legsFromSpec(goldenLegs);
    ASSERT_EQ(legs.size(), 4u);
    EXPECT_EQ(legs[0].name, "dyn1");
    EXPECT_EQ(legs[0].display, "dynamic-1%");
    EXPECT_EQ(legs[0].kind, LegSpec::Kind::ScheduleReplay);
    EXPECT_EQ(legs[0].dilation, 0.01);
    EXPECT_EQ(legs[1].dilation, 0.05);
    EXPECT_EQ(legs[2].kind, LegSpec::Kind::GlobalSearch);
    EXPECT_EQ(legs[2].reference, "dyn5");
    EXPECT_EQ(legs[3].kind, LegSpec::Kind::Controller);
    EXPECT_EQ(legs[3].controller, "online-queue");
    EXPECT_EQ(legsToSpec(legs), goldenLegs);
    for (const char *text : {"dyn5=replay:0.05|online=ctrl:online-queue",
                             "dyn5=replay:0.03",
                             "pid=ctrl:pid@setpoint=0.5,kp=32"})
        EXPECT_EQ(legsToSpec(legsFromSpec(text)), text);
    legs = legsFromSpec("|pid=ctrl:pid@setpoint=0.5,kp=32||");
    ASSERT_EQ(legs.size(), 1u);
    EXPECT_EQ(legs[0].params, "setpoint=0.5,kp=32");

    using P = std::vector<ControllerParam>;
    EXPECT_EQ(parseControllerParams("setpoint=0.5,kp=32", "c"),
              (P{{"setpoint", 0.5}, {"kp", 32.0}}));
    EXPECT_EQ(parseControllerParams(",interval-us=50,,scale-fe=1,", "c"),
              (P{{"interval-us", 50.0}, {"scale-fe", 1.0}}));
    EXPECT_EQ(parseControllerParams("kp=-1e-3", "c"), (P{{"kp", -1e-3}}));
    EXPECT_EQ(parseControllerParams("", "c"), P{});

    for (const char *text :
         {"leg:adpcm/dyn1=throw", "cache:adpcm=corrupt",
          "leg:adpcm/dyn5=vfmisorder",
          "leg:adpcm/dyn1=throw;leg:adpcm/online=flaky",
          "leg:a/b=flaky:3;leg:a/c=stall;cache:a=truncate;seed=42"})
        EXPECT_EQ(fault::FaultPlan::parse(text).toSpec(), text);
    fault::FaultPlan plan =
        fault::FaultPlan::parse("leg:@/dyn5=flaky:1;;seed=42");
    ASSERT_EQ(plan.specs().size(), 1u);
    EXPECT_EQ(plan.specs()[0].site, "@/dyn5");
    EXPECT_EQ(plan.specs()[0].kind, fault::FaultKind::Flaky);
    EXPECT_EQ(plan.specs()[0].count, 1);
    EXPECT_EQ(plan.seed(), 42u);
    EXPECT_EQ(fault::FaultPlan::parse("leg:a/b=flaky:3").specs()[0].count,
              3);

    using obs::InvariantEngine;
    EXPECT_EQ(InvariantEngine::parseSpec("default").size(),
              InvariantEngine::defaultRules().size());
    std::vector<obs::InvariantRule> rules = InvariantEngine::parseSpec(
        "dilation<=0.12;queue_fill<=capacity");
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0].bound, 0.12);
    EXPECT_EQ(rules[1].metric, obs::InvariantMetric::QueueFill);
    EXPECT_EQ(rules[1].bound, 1.0);
    rules = InvariantEngine::parseSpec(
        " dilation <= 0.001 ; voltage_leads_freq==never ;"
        "freq_in_table==always");
    ASSERT_EQ(rules.size(), 3u);
    EXPECT_EQ(rules[0].text, "dilation<=0.001");
    EXPECT_EQ(rules[1].metric, obs::InvariantMetric::VoltageLeadsFreq);
    EXPECT_EQ(rules[2].metric, obs::InvariantMetric::FreqInTable);

    for (const char *text :
         {"seed=5;phase=int:1500:4:256:1:50;phase=mem:1200:2:512:4:50",
          "seed=9235374536318864070;phase=branch:3327:1:16:2:41;"
          "phase=int:4270:4:2048:3:6",
          "seed=18446744073709551615;phase=fp:1:8:64:-3:0"})
        EXPECT_EQ(fuzz::GenParams::fromSpec(text).spec(), text);
    fuzz::GenParams gp = fuzz::GenParams::fromSpec(
        ";seed=77;;phase=mem:2147483647:2:64:-3:100;");
    EXPECT_EQ(gp.seed, 77u);
    ASSERT_EQ(gp.phases.size(), 1u);
    EXPECT_EQ(gp.phases[0].kind, fuzz::PhaseKind::MemStream);
    EXPECT_EQ(gp.phases[0].iters, 2147483647);
    EXPECT_EQ(gp.phases[0].stride, -3);
    EXPECT_EQ(gp.phases[0].takenPercent, 100);

    fuzz::Scenario sc;
    sc.workload = gp;
    sc.options = {{"model", "Transmeta"},
                  {"dvfsTimeScale", "0.2"},
                  {"dilationLow", "0.01"},
                  {"dilationHigh", "0.030000"},
                  {"seed", "606953"},
                  {"legAttempts", "3"},
                  {"watchdogEdges", "1000000"},
                  {"watchdogTicks", "0"},
                  {"sampling", "detailed=1000,ff=4000,warmup=250"}};
    sc.legsSpec = "dyn5=replay:0.03";
    ExperimentConfig cfg = sc.toConfig();
    EXPECT_EQ(cfg.model, DvfsKind::Transmeta);
    EXPECT_EQ(cfg.dvfsTimeScale, 0.2);
    EXPECT_EQ(cfg.dilationHigh, 0.03);
    EXPECT_EQ(cfg.seed, 606953u);
    EXPECT_EQ(cfg.legAttempts, 3);
    EXPECT_EQ(cfg.watchdogNoProgressEdges, 1000000u);
    ASSERT_TRUE(cfg.sampling.has_value());
    EXPECT_EQ(cfg.sampling->ffInsts, 4000u);

    std::vector<int> jobs;
    for (const std::string &text : corpusTexts()) {
        std::optional<fuzz::Repro> r = reproFromText(text);
        ASSERT_TRUE(r.has_value()) << text;
        jobs.push_back(r->scenario.jobs);
    }
    EXPECT_EQ(jobs, (std::vector<int>{2, 1, 1}));
    for (const char *n : {"1", "64", "\"8\""}) {
        std::optional<fuzz::Repro> r = reproFromText(reproWithJobs(n));
        ASSERT_TRUE(r.has_value()) << n;
    }
}

TEST(SpecGrammars, RejectTableFailsWithAStructuredError)
{
    // Each of these once parsed to a silently wrong value (or, for a
    // repro, to an unbounded worker count).
    auto throws = [](const std::function<void()> &parse,
                     const std::string &grammar, const char *input) {
        try {
            parse();
            ADD_FAILURE() << "accepted '" << input << "'";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(grammar),
                      std::string::npos) << e.what();
        }
    };
    for (const char *text :
         {"detailed=-1000,ff=9000", "detailed=1000,ff=+5",
          "detailed=1000,ff=9000,tol=inf", "detailed= 1000,ff=9000",
          "detailed=1000,ff=9000,tol=0x1p-4"})
        throws([&] { SamplingParams::fromSpec(text); }, "MCD_SAMPLING",
               text);
    for (const char *text :
         {"seed=", "seed=-1", "leg:adpcm/online=flaky:",
          "leg:adpcm/online=flaky:2x", "leg:adpcm/online=flaky:+2",
          "leg:adpcm/online="})
        throws([&] { fault::FaultPlan::parse(text); },
               "MCD_FAULT_PLAN: bad item", text);
    for (const char *text :
         {"seed=;phase=int:1000:4:256:1:50",
          "seed=-1;phase=int:1000:4:256:1:50",
          "seed=1;phase=int:99999999999:4:256:1:50",
          "seed=1;phase=int:1000:4:256:1:-2147483649"})
        throws([&] { fuzz::GenParams::fromSpec(text); }, "GenParams:",
               text);
    for (const char *text : {"kp= 1", "setpoint=0x10",
                             "kp= 1,setpoint=0x10", "kp=nan", "kp"})
        throws([&] { parseControllerParams(text, "controller 'pid'"); },
               "controller 'pid'", text);
    for (const char *text :
         {"interval-us=-1", "attack-points=2.9", "attack-points=1e20",
          "interval-us=1e300", "scale-fe=0.5", "scale-fe=7",
          "scale-fe=-1"})
        throws([&] {
            ControllerRegistry::instance().make("online-queue",
                                                ControllerContext{}, text);
        }, "controller 'online-queue'", text);
    for (const char *text : {"dyn5=replay: 0.05", "dyn5=replay:inf",
                             "dyn5=replay:+0.05", "dyn5="})
        throws([&] { legsFromSpec(text); }, "LegSpec: malformed spec",
               text);
    for (const char *text : {"dilation<=0x1", "dilation<=inf",
                             "dilation<="})
        throws([&] { obs::InvariantEngine::parseSpec(text); },
               "MCD_INVARIANTS", text);
    for (const auto &[name, text] :
         std::vector<std::pair<const char *, const char *>>{
             {"seed", ""},
             {"dilationHigh", " 0.05"},
             {"dvfsTimeScale", "inf"},
             {"legAttempts", "-1"}}) {
        fuzz::Scenario sc;
        sc.workload = fuzz::GenParams::fromSpec(
            "seed=5;phase=int:1500:4:256:1:50");
        sc.options = {{name, text}};
        throws([&] { sc.toConfig(); }, "Scenario config", name);
    }

    for (const char *text : {"adpcm,adpcm", "adpcm,mst,adpcm"}) {
        ConfigSandbox sandbox;
        sandbox.set("MCD_BENCHMARKS", text);
        throws([] { benchmarkNamesFromSpec(config::RunSpec::resolve()); },
               "benchmark 'adpcm' listed twice", text);
    }

    for (const char *jobs : {"\"4x\"", "0", "100000", "-1", "\"\""})
        EXPECT_FALSE(reproFromText(reproWithJobs(jobs)).has_value())
            << "jobs " << jobs;
    EXPECT_FALSE(
        reproFromText(reproWithJobs(std::to_string(config::kMaxSoakJobs +
                                                   1)))
            .has_value());
}

TEST(SpecGrammars, LegDilationsRoundTripBitExactly)
{
    // toSpec writes config::canonicalDouble text; whatever its
    // spelling ("0.0005" or "5e-04"), it must parse back to the bits.
    for (double d : {0.01, 0.05, 0.0005, 1e-7, 0.1 + 0.2, 1.0 / 3.0}) {
        LegSpec l = LegSpec::scheduleReplay("x", d);
        EXPECT_EQ(LegSpec::fromSpec(l.toSpec()).dilation, d) << l.toSpec();
    }
}

// --- the ExperimentConfig option table -------------------------------

/** The result-shaping options that pick benchmarks or legs instead of
 *  setting an ExperimentConfig field. */
bool
pickerOption(std::string_view name)
{
    return name == "benchmarks" || name == "controllers" ||
        name == "tournament";
}

TEST(ConfigOptions, EveryResultShapingOptionIsBoundOrAPicker)
{
    std::vector<std::string> bound;
    for (const config::OptionDef &o : config::options()) {
        if (o.affectsResults && !pickerOption(o.name))
            bound.emplace_back(o.name);
    }
    std::vector<std::string> table;
    for (const ConfigOption &c : configOptions()) {
        table.emplace_back(c.name);
        const config::OptionDef *o = config::find(c.name);
        ASSERT_NE(o, nullptr) << c.name;
        EXPECT_TRUE(o->affectsResults) << c.name;
    }
    // Same options, and in registry order.
    EXPECT_EQ(table, bound);
    EXPECT_EQ(table.size(), 13u);
}

TEST(ConfigOptions, NonDefaultTextRoundTripsThroughReadAndPrint)
{
    const std::map<std::string, std::string> text = {
        {"dilationHigh", "0.07"},
        {"dilationLow", "0.02"},
        {"dvfsTimeScale", "0.1"},
        {"faultPlan", "leg:adpcm/dyn1=throw;seed=42"},
        {"invariants", "dilation<=0.12;queue_fill<=capacity"},
        {"legAttempts", "3"},
        {"legs", goldenLegs},
        {"model", "Transmeta"},
        {"sampling", "detailed=2000,ff=18000,warmup=500,tol=0.05"},
        {"scale", "2"},
        {"seed", "606953"},
        {"watchdogEdges", "1000000"},
        {"watchdogTicks", "5000000"},
    };
    ASSERT_EQ(text.size(), configOptions().size());
    for (const ConfigOption &c : configOptions()) {
        const std::string &t = text.at(c.name);
        ExperimentConfig cfg;
        EXPECT_NE(c.print(cfg), t) << c.name << " text is the default";
        c.read(cfg, c.name, t);
        EXPECT_EQ(c.print(cfg), t) << c.name;
        // Reading the printed text back is a fixed point.
        ExperimentConfig again;
        c.read(again, c.name, c.print(cfg));
        EXPECT_EQ(c.print(again), t) << c.name;
        EXPECT_EQ(&configOption(c.name), &c);
    }
}

TEST(ConfigOptions, DefaultConfigPrintsTheRegistryDefaults)
{
    // The two sources of defaults, ExperimentConfig's initializers and
    // the registry's defaultValue column, must not drift. The model is
    // the documented exception: its registry default is empty (the
    // binary's built-in choice), and the config's is XScale.
    const ExperimentConfig cfg;
    for (const ConfigOption &c : configOptions()) {
        const config::OptionDef *o = config::find(c.name);
        ASSERT_NE(o, nullptr) << c.name;
        if (std::string_view(c.name) == "model") {
            EXPECT_STREQ(o->defaultValue, "");
            EXPECT_EQ(c.print(cfg), "XScale");
            continue;
        }
        EXPECT_EQ(config::canonicalValue(*o, c.name, c.print(cfg)),
                  config::canonicalValue(*o, c.name, o->defaultValue))
            << c.name;
    }
}

TEST(ConfigOptions, MalformedTextIsAFatalErrorNamingTheOption)
{
    for (const auto &[name, text] :
         std::vector<std::pair<const char *, const char *>>{
             {"dilationHigh", "0.05x"},
             {"legAttempts", "0"},
             {"scale", "99999999999"},
             {"model", "bogus"},
             {"seed", "-1"},
             {"watchdogTicks", "1e3"}}) {
        ExperimentConfig cfg;
        try {
            configOption(name).read(cfg, std::string("opt ") + name, text);
            ADD_FAILURE() << name << " accepted '" << text << "'";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(std::string("opt ") +
                                                 name),
                      std::string::npos)
                << e.what();
        }
    }
    // An empty model keeps the config's own.
    ExperimentConfig cfg;
    cfg.model = DvfsKind::Transmeta;
    configOption("model").read(cfg, "model", "");
    EXPECT_EQ(cfg.model, DvfsKind::Transmeta);
}

/** Apply one seeded byte mutation to @p s. */
std::string
mutate(std::string s, Rng &rng)
{
    static const char *const inserts[] = {"-", " ", "nan",
                                          "12345678901234567890"};
    if (s.empty())
        return inserts[rng.uniformInt(4)];
    std::size_t at = rng.uniformInt(s.size());
    switch (rng.uniformInt(4)) {
      case 0:
        s.erase(at, 1);
        break;
      case 1:
        s.insert(at, 1, s[at]);
        break;
      case 2:
        s[at] = static_cast<char>(s[at] ^ (1 << rng.uniformInt(8)));
        break;
      default:
        s.insert(at, inserts[rng.uniformInt(4)]);
        break;
    }
    return s;
}

/** A cache file's payload: everything before its "sum" line. */
std::string
cachePayload()
{
    BenchmarkResults r;
    r.globalFrequency = 625e6;
    r.baseline.execTime = 217434567;
    r.baseline.ipc = 0.6180339887498949;
    r.mcdBaseline.totalEnergy = 1.4142135623730951e-3;
    for (const LegSpec &spec : defaultLegs(ExperimentConfig{}))
        r.legs.push_back({spec, RunResult{}, 42});
    std::ostringstream os;
    expcache::write(os, r);
    const std::string text = os.str();
    return text.substr(0, text.rfind("sum "));
}

TEST(SpecGrammars, SeededByteMutationsParseOrFailStructurally)
{
    struct Grammar
    {
        const char *name;
        std::vector<std::string> valid;
        std::function<void(const std::string &)> parse;
    };
    const std::vector<Grammar> grammars = {
        {"splitList", {"adpcm,mst", "dyn5,online", "a,,b,"},
         [](const std::string &t) { config::splitList(t); }},
        {"sampling",
         {"detailed=1000,ff=9000,warmup=250",
          "detailed=2000,ff=18000,warmup=500,tol=0.05"},
         [](const std::string &t) { SamplingParams::fromSpec(t); }},
        {"legs",
         {goldenLegs, "dyn5=replay:0.05|online=ctrl:online-queue",
          "pid~PID=ctrl:pid@setpoint=0.5,kp=32"},
         [](const std::string &t) { legsFromSpec(t); }},
        {"controllerParams",
         {"setpoint=0.5,kp=32", "interval-us=50,scale-fe=1",
          "attack-points=2,decay-points=1,idle-decay-points=3",
          "step-points=2,up-threshold=0.8"},
         [](const std::string &t) {
             parseControllerParams(t, "c");
             // An accepted spec reaches every factory's casts, which
             // must build or fail structurally too.
             const ControllerRegistry &reg = ControllerRegistry::instance();
             for (const std::string &name : reg.names()) {
                 try {
                     reg.make(name, ControllerContext{}, t);
                 } catch (const FatalError &) {
                 }
             }
         }},
        {"faultPlan",
         {"leg:adpcm/dyn1=throw;leg:adpcm/online=flaky",
          "leg:a/b=flaky:3;leg:a/c=stall;cache:a=truncate;seed=42",
          "leg:@/dyn5=vfmisorder;cache:@=corrupt"},
         [](const std::string &t) { fault::FaultPlan::parse(t); }},
        {"invariants",
         {"default", "dilation<=0.12;queue_fill<=capacity",
          "voltage_leads_freq==never;freq_in_table==always"},
         [](const std::string &t) { obs::InvariantEngine::parseSpec(t); }},
        {"genParams",
         {"seed=5;phase=int:1500:4:256:1:50;phase=mem:1200:2:512:4:50",
          "seed=9235374536318864070;phase=branch:3327:1:16:2:41"},
         [](const std::string &t) { fuzz::GenParams::fromSpec(t); }},
        {"jsonlite", corpusTexts(),
         [](const std::string &t) {
             config::jsonlite::Value v;
             std::string err;
             if (!config::jsonlite::parse(t, v, err))
                 fatal("jsonlite: " + err);
         }},
        {"expcache", {cachePayload()},
         [](const std::string &payload) {
             // Re-sign the mutant so it gets past the checksum to the
             // record parser.
             std::ostringstream file;
             file << payload << "sum " << std::hex << fnv1a(payload)
                  << '\n';
             std::istringstream in(file.str());
             if (!expcache::read(in, "x"))
                 fatal("expcache: rejected");
         }},
        {"soakJournal",
         {"0 ok -\n1 ok -\n"
          "2 invariant invariant:voltage_leads_freq@dyn5\n",
          "# runspec {\"version\":1}\n0 legfail legfail:dyn1:leg\n"
          "1 crash crash\n2 divergence divergence:dyn5\n"},
         [](const std::string &t) {
             std::istringstream in(t);
             if (fuzz::readJournal(in).skipped)
                 fatal("soakJournal: skipped a malformed line");
         }},
        {"repro", corpusTexts(),
         [](const std::string &t) {
             // An accepted repro's option values reach the config
             // table, which must parse them or fail structurally too.
             if (std::optional<fuzz::Repro> r = reproFromText(t))
                 r->scenario.toConfig();
         }},
    };
    for (const Grammar &g : grammars) {
        ASSERT_FALSE(g.valid.empty()) << g.name;
        Rng rng = streamRng(1, std::string("spec.mutate.") + g.name);
        int accepted = 0;
        int rejected = 0;
        for (int i = 0; i < 1000; ++i) {
            std::string text = g.valid[rng.uniformInt(g.valid.size())];
            for (std::uint64_t n = 1 + rng.uniformInt(3); n > 0; --n)
                text = mutate(std::move(text), rng);
            try {
                g.parse(text);
                ++accepted;
            } catch (const FatalError &) {
                ++rejected;
            } catch (const std::exception &e) {
                ADD_FAILURE() << g.name << ": '" << text
                              << "' threw a non-FatalError: " << e.what();
            }
        }
        EXPECT_GT(accepted, 0) << g.name;
        if (std::string(g.name) != "splitList") {
            EXPECT_GT(rejected, 0) << g.name;
        }
    }
}

} // namespace
} // namespace mcd
