/**
 * @file
 * The unified typed configuration layer: strict defaults < config
 * file < env < flags precedence with per-option provenance, the
 * value-checked boolean rule, empty-env semantics, unknown-key and
 * invalid-value rejection, the unregistered-MCD_* environment canary,
 * exact RunSpec JSON round-trips, schema generation, and the
 * env-vs-config-file / effectiveConfig-feed-back byte-identity of a
 * real adpcm+mst matrix.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "config/registry.hh"
#include "config/runspec.hh"
#include "core/experiment.hh"

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

TEST(RunSpec, UnregisteredEnvVarsWarnStrictFatalAllowlistSilences)
{
    {   // Recorded (and warned once) by default.
        ConfigSandbox sandbox;
        sandbox.set("MCD_TYPO_XYZ", "1");
        config::RunSpec spec = config::RunSpec::resolve();
        ASSERT_EQ(spec.unknownEnv.size(), 1u);
        EXPECT_EQ(spec.unknownEnv[0], "MCD_TYPO_XYZ");
    }
    {   // strictEnv makes it fatal, enumerating the offenders.
        ConfigSandbox sandbox;
        sandbox.set("MCD_TYPO_XYZ", "1");
        sandbox.set("MCD_STRICT_ENV", "1");
        try {
            config::RunSpec::resolve();
            ADD_FAILURE() << "expected FatalError";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("MCD_TYPO_XYZ"),
                      std::string::npos);
        }
    }
    {   // Exact-name allowlist.
        ConfigSandbox sandbox;
        sandbox.set("MCD_TYPO_XYZ", "1");
        sandbox.set("MCD_STRICT_ENV", "1");
        sandbox.set("MCD_ENV_ALLOW", "MCD_TYPO_XYZ");
        EXPECT_TRUE(config::RunSpec::resolve().unknownEnv.empty());
    }
    {   // Trailing-* prefix allowlist (the CI-wrapper escape hatch).
        ConfigSandbox sandbox;
        sandbox.set("MCD_TYPO_XYZ", "1");
        sandbox.set("MCD_STRICT_ENV", "1");
        sandbox.set("MCD_ENV_ALLOW", "MCD_TYPO_*");
        EXPECT_TRUE(config::RunSpec::resolve().unknownEnv.empty());
    }
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

} // namespace
} // namespace mcd
