#include "runspec.hh"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

#include "common/log.hh"
#include "common/spec.hh"
#include "common/thread_pool.hh"
#include "config/jsonlite.hh"

extern char **environ;

namespace mcd {
namespace config {

const char *const runSpecVersion = "mcd-runspec-v1";

std::vector<std::string>
splitList(const std::string &csv)
{
    return spec::split(csv, ',');
}

std::string
canonicalDouble(double v)
{
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        panic("canonicalDouble: to_chars failed");
    return std::string(buf, ptr);
}

std::string
canonicalValue(const OptionDef &opt, const std::string &what,
               const std::string &raw)
{
    switch (opt.type) {
      case Type::Bool:
        return spec::parseBool(what, raw) ? "true" : "false";
      case Type::Int:
        return std::to_string(spec::parseInt(what, raw));
      case Type::U64:
        return std::to_string(spec::parseU64(what, raw));
      case Type::Double:
        return canonicalDouble(spec::parseDouble(what, raw));
      case Type::String:
      case Type::Path:
        return raw;
    }
    return raw;
}

namespace {

/** What to call an entry in parse/validation errors, per layer. */
std::string
describe(const OptionDef &opt, Source src)
{
    switch (src) {
      case Source::Env: return opt.env;
      case Source::Flag: return opt.flag;
      case Source::File:
        return "config file option '" + std::string(opt.name) + "'";
      case Source::Default:
        return std::string("option '") + opt.name + "' default";
    }
    return opt.name;
}

/** Empty env values mean "unset" for numeric options (CI wrappers
 *  clear variables with VAR=), but are an explicit value for strings,
 *  paths (MCD_CACHE_DIR= disables caching), and booleans (""/0 are
 *  both false under the value-checked rule). */
bool
emptyMeansUnset(Type t)
{
    return t == Type::Int || t == Type::U64 || t == Type::Double;
}

void
loadConfigFile(RunSpec &spec, const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("config: cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();

    jsonlite::Value doc;
    std::string err;
    if (!jsonlite::parse(buf.str(), doc, err) ||
        doc.kind != jsonlite::Value::Kind::Object) {
        fatal("config: " + path + ": malformed JSON (" +
              (err.empty() ? "not an object" : err) + ")");
    }
    const jsonlite::Value *version = doc.find("version");
    if (!version || version->text != runSpecVersion)
        fatal("config: " + path + ": expected \"version\": \"" +
              runSpecVersion + "\"");
    for (const auto &[key, value] : doc.members) {
        if (key == "version" || key == "provenance")
            continue;   // provenance is informational on load
        if (key != "options")
            fatal("config: " + path + ": unknown top-level key '" +
                  key + "' (expected version, options, provenance)");
        if (value.kind != jsonlite::Value::Kind::Object)
            fatal("config: " + path + ": \"options\" must be an "
                  "object");
        for (const auto &[name, v] : value.members) {
            const OptionDef *opt = find(name);
            if (!opt)
                fatal("config: " + path + ": unknown option '" + name +
                      "' (valid: " + validNames() + ")");
            if (opt->name == std::string_view("config"))
                fatal("config: " + path + ": a config file cannot "
                      "name another config file");
            if (v.kind == jsonlite::Value::Kind::Object)
                fatal("config: " + path + ": option '" + name +
                      "' must be a scalar");
            spec.entries[opt->name] = {v.text, Source::File};
        }
    }
}

/** Names already warned about (warn-once across resolve() calls). */
std::set<std::string> &
warnedEnvNames()
{
    static std::set<std::string> names;
    return names;
}

std::mutex warnMutex;

void
scanEnviron(RunSpec &spec)
{
    std::vector<std::string> unknown;
    for (char **e = environ; e && *e; ++e) {
        std::string_view entry(*e);
        if (entry.substr(0, 4) != "MCD_")
            continue;
        std::size_t eq = entry.find('=');
        std::string name(entry.substr(0, eq));
        if (!findByEnv(name))
            unknown.push_back(std::move(name));
    }
    if (unknown.empty())
        return;
    spec.unknownEnv = unknown;
    std::lock_guard<std::mutex> lk(warnMutex);
    for (const std::string &n : unknown) {
        if (!warnedEnvNames().insert(n).second)
            continue;
        warn("config: environment variable " + n + " matches no "
             "registered option and is ignored (a typo? valid names: " +
             validEnvNames() + ")");
    }
}

} // namespace

RunSpec
RunSpec::resolve()
{
    RunSpec spec;
    for (const OptionDef &o : options())
        spec.entries[o.name] = {o.defaultValue, Source::Default};

    // The config-file path itself resolves flag-over-env so a --config
    // flag beats an MCD_CONFIG variable, like every other option.
    std::string path;
    if (const char *v = std::getenv("MCD_CONFIG"))
        path = v;
    std::vector<std::pair<std::string, std::string>> flags =
        flagOverrides();
    for (const auto &[name, value] : flags)
        if (name == "config")
            path = value;
    if (!path.empty())
        loadConfigFile(spec, path);

    for (const OptionDef &o : options()) {
        const char *v = std::getenv(o.env);
        if (!v)
            continue;
        if (!*v && emptyMeansUnset(o.type))
            continue;
        spec.entries[o.name] = {v, Source::Env};
    }

    for (const auto &[name, value] : flags)
        spec.entries[name] = {value, Source::Flag};

    // Validate every non-default entry: collect all defects into one
    // fatal (fuzz-triage style), not just the first.
    std::vector<std::string> errs;
    for (const OptionDef &o : options()) {
        const Entry &e = spec.entries[o.name];
        if (e.source == Source::Default)
            continue;
        std::string what = describe(o, e.source);
        try {
            canonicalValue(o, what, e.value);
            if (o.check)
                o.check(o, what, e.value);
        } catch (const FatalError &ex) {
            errs.emplace_back(ex.what());
        }
    }
    if (errs.size() == 1)
        fatal(errs.front());
    if (!errs.empty()) {
        std::string msg = "config: " + std::to_string(errs.size()) +
            " invalid settings:";
        for (const std::string &e : errs)
            msg += "\n  - " + e;
        fatal(msg);
    }

    scanEnviron(spec);
    return spec;
}

const RunSpec::Entry &
RunSpec::entry(std::string_view name) const
{
    auto it = entries.find(name);
    if (it == entries.end())
        fatal("config: unknown option '" + std::string(name) +
              "' (valid: " + validNames() + ")");
    return it->second;
}

Source
RunSpec::source(std::string_view name) const
{
    return entry(name).source;
}

bool
RunSpec::isDefault(std::string_view name) const
{
    return entry(name).source == Source::Default;
}

std::string
RunSpec::str(std::string_view name) const
{
    return entry(name).value;
}

bool
RunSpec::boolean(std::string_view name) const
{
    return spec::parseBool(std::string(name), entry(name).value);
}

long long
RunSpec::integer(std::string_view name) const
{
    return spec::parseInt(std::string(name), entry(name).value);
}

std::uint64_t
RunSpec::u64(std::string_view name) const
{
    return spec::parseU64(std::string(name), entry(name).value);
}

double
RunSpec::real(std::string_view name) const
{
    return spec::parseDouble(std::string(name), entry(name).value);
}

int
RunSpec::jobs() const
{
    long long n = integer("jobs");
    if (n > 0)
        return static_cast<int>(n);
    return static_cast<int>(ThreadPool::hardwareJobs());
}

std::string
provenanceFor(const RunSpec &spec, const OptionDef &opt,
              const std::string &actual)
{
    const RunSpec::Entry &e = spec.entry(opt.name);
    std::string what = std::string("option '") + opt.name + "'";
    if (canonicalValue(opt, what, e.value) ==
        canonicalValue(opt, what, actual)) {
        return sourceName(e.source);
    }
    return "code";
}

void
writeEffectiveConfigJson(
    json::Writer &w, const RunSpec &spec,
    const std::vector<std::pair<std::string, std::string>> &actual)
{
    w.beginObject().field("version", runSpecVersion);
    w.key("options").beginObject();
    for (const auto &[name, value] : actual) {
        const OptionDef *opt = find(name);
        if (!opt)
            panic("writeEffectiveConfigJson: unknown option " + name);
        std::string what = std::string("option '") + name + "'";
        std::string canonical = canonicalValue(*opt, what, value);
        w.key(name);
        if (opt->type == Type::String || opt->type == Type::Path)
            w.value(canonical);
        else
            w.raw(canonical);   // already a canonical JSON token
    }
    w.endObject().key("provenance").beginObject();
    for (const auto &[name, value] : actual)
        w.field(name, provenanceFor(spec, *find(name), value));
    w.endObject().endObject();
}

} // namespace config
} // namespace mcd
