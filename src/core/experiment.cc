#include "experiment.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <iomanip>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include <unistd.h>

#include "clock/operating_points.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "common/spec.hh"
#include "config/runspec.hh"
#include "control/registry.hh"
#include "core/global_search.hh"
#include "obs/host_prof.hh"
#include "workloads/workloads.hh"

namespace mcd {

namespace {

const char *
legKindName(LegSpec::Kind k)
{
    switch (k) {
      case LegSpec::Kind::ScheduleReplay: return "schedule-replay";
      case LegSpec::Kind::GlobalSearch: return "global-search";
      case LegSpec::Kind::Controller: return "controller";
    }
    return "?";
}

} // namespace

LegSpec
LegSpec::scheduleReplay(std::string name, double dilation,
                        std::string display)
{
    LegSpec l;
    l.display = display.empty() ? name : std::move(display);
    l.name = std::move(name);
    l.kind = Kind::ScheduleReplay;
    l.dilation = dilation;
    return l;
}

LegSpec
LegSpec::globalSearch(std::string name, std::string reference,
                      std::string display)
{
    LegSpec l;
    l.display = display.empty() ? name : std::move(display);
    l.name = std::move(name);
    l.kind = Kind::GlobalSearch;
    l.reference = std::move(reference);
    return l;
}

LegSpec
LegSpec::controllerLeg(std::string name, std::string controller,
                       std::string params, std::string display)
{
    LegSpec l;
    l.display = display.empty() ? name : std::move(display);
    l.name = std::move(name);
    l.kind = Kind::Controller;
    l.controller = std::move(controller);
    l.params = std::move(params);
    return l;
}

std::string
LegSpec::toSpec() const
{
    std::string head = name;
    if (!display.empty() && display != name)
        head += "~" + display;
    switch (kind) {
      case Kind::ScheduleReplay:
        return head + "=replay:" + config::canonicalDouble(dilation);
      case Kind::GlobalSearch:
        return head + "=global:" + reference;
      case Kind::Controller:
        return head + "=ctrl:" + controller +
            (params.empty() ? std::string() : "@" + params);
    }
    return head;
}

LegSpec
LegSpec::fromSpec(const std::string &text)
{
    const std::string what = "LegSpec: malformed spec '" + text + "'";
    auto bad = [&](const std::string &why) {
        fatal(what + ": " + why +
              " (grammar: name[~display]=replay:<dilation>|"
              "global:<ref>|ctrl:<name>[@<params>])");
    };
    auto [head, body] = spec::keyValue("LegSpec: malformed spec", text);
    std::string name = head;
    std::string display;
    std::size_t tilde = head.find('~');
    if (tilde != std::string::npos) {
        name = head.substr(0, tilde);
        display = head.substr(tilde + 1);
        if (display.empty())
            bad("empty display after '~'");
    }
    if (name.empty())
        bad("empty leg name");

    if (body.rfind("replay:", 0) == 0) {
        return scheduleReplay(
            name, spec::parseDouble(what + ": dilation", body.substr(7)),
            display);
    }
    if (body.rfind("global:", 0) == 0) {
        std::string ref = body.substr(7);
        if (ref.empty())
            bad("empty global-search reference");
        return globalSearch(name, ref, display);
    }
    if (body.rfind("ctrl:", 0) == 0) {
        std::string rest = body.substr(5);
        std::size_t at = rest.find('@');
        std::string ctrl = rest.substr(0, at == std::string::npos
                                       ? rest.size() : at);
        std::string params = at == std::string::npos
            ? std::string() : rest.substr(at + 1);
        if (ctrl.empty())
            bad("empty controller name");
        return controllerLeg(name, ctrl, params, display);
    }
    bad("unknown leg kind (want replay:/global:/ctrl:)");
    return LegSpec{};    // unreachable; bad() throws
}

std::string
legsToSpec(const std::vector<LegSpec> &legs)
{
    std::string out;
    for (const LegSpec &l : legs) {
        if (!out.empty())
            out += "|";
        out += l.toSpec();
    }
    return out;
}

std::vector<LegSpec>
legsFromSpec(const std::string &text)
{
    std::vector<LegSpec> out;
    for (const std::string &one : spec::split(text, '|'))
        out.push_back(LegSpec::fromSpec(one));
    return out;
}

std::vector<LegSpec>
defaultLegs(const ExperimentConfig &cfg)
{
    std::vector<LegSpec> out;
    out.push_back(LegSpec::scheduleReplay("dyn1", cfg.dilationLow,
                                          "dynamic-1%"));
    out.push_back(LegSpec::scheduleReplay("dyn5", cfg.dilationHigh,
                                          "dynamic-5%"));
    out.push_back(LegSpec::globalSearch("global", "dyn5"));
    out.push_back(LegSpec::controllerLeg("online", "online-queue", "",
                                         "online"));
    return out;
}

std::vector<LegSpec>
tournamentLegs(const ExperimentConfig &cfg)
{
    std::vector<LegSpec> out;
    // The dyn5 schedule-replay oracle anchors the field: it has seen
    // the future (the profiling trace), so a controller beating it
    // would be suspicious, not impressive.
    out.push_back(LegSpec::scheduleReplay("dyn5", cfg.dilationHigh,
                                          "dynamic-5%"));
    for (const std::string &n : ControllerRegistry::instance().names())
        out.push_back(LegSpec::controllerLeg(n, n));
    return out;
}

namespace expcache {

// v2: adds the trailing "end" sentinel so truncated files are always
// rejected (whitespace-delimited numbers could otherwise parse a
// shortened final value as valid).
// v3: adds the online-controller run as a sixth record.
// v4: adds a trailing FNV-1a checksum line over the whole payload so
// silent corruption anywhere (not just truncation) is detected and
// the file can be quarantined instead of trusted.
// v5: replaces the fixed six-record layout with a leg count in the
// header and one named "leg" record per dynamic-control leg, so any
// registered controller's results cache alongside the built-ins.
const char *const version = "mcd-cache-v5";

namespace {

void
writeRunBody(std::ostream &os, const RunResult &r)
{
    os << ' ' << r.execTime << ' ' << r.committed << ' '
       << r.ipc << ' ' << r.totalEnergy << ' ' << r.energyDelay;
    for (int d = 0; d < numDomains; ++d) {
        const DomainSummary &s = r.domains[d];
        os << ' ' << s.cycles << ' ' << s.energy << ' '
           << s.avgFrequency << ' ' << s.minFrequency << ' '
           << s.maxFrequency << ' ' << s.reconfigurations;
    }
    os << '\n';
}

/**
 * The payload's whitespace-separated tokens. Each number must be a
 * whole token that spec::parseU64 / spec::parseDouble accepts (so a
 * '-' on an unsigned field is refused, not wrapped); any refusal or a
 * missing token throws FatalError, which read() turns into nullopt.
 */
struct Tokens
{
    std::istream &is;

    std::string
    next()
    {
        std::string t;
        if (!(is >> t))
            fatal("expcache: truncated payload");
        return t;
    }

    std::uint64_t u64() { return spec::parseU64("expcache", next()); }
    double real() { return spec::parseDouble("expcache", next()); }

    void
    expect(const char *tag)
    {
        if (next() != tag)
            fatal(std::string("expcache: expected '") + tag + "'");
    }
};

void
readRunBody(Tokens &tok, RunResult &r)
{
    r.execTime = tok.u64();
    r.committed = tok.u64();
    r.ipc = tok.real();
    r.totalEnergy = tok.real();
    r.energyDelay = tok.real();
    for (DomainSummary &s : r.domains) {
        s.cycles = tok.u64();
        s.energy = tok.real();
        s.avgFrequency = tok.real();
        s.minFrequency = tok.real();
        s.maxFrequency = tok.real();
        s.reconfigurations = tok.u64();
    }
}

} // namespace

void
write(std::ostream &os, const BenchmarkResults &r)
{
    std::ostringstream payload;
    payload << std::setprecision(17);
    payload << version << '\n'
            << r.globalFrequency << ' ' << r.legs.size() << '\n';
    payload << "baseline";
    writeRunBody(payload, r.baseline);
    payload << "mcd";
    writeRunBody(payload, r.mcdBaseline);
    for (const ControllerLeg &l : r.legs) {
        payload << "leg " << l.spec.name << ' ' << l.scheduleSize;
        writeRunBody(payload, l.run);
    }
    payload << "end\n";

    std::string text = payload.str();
    os << text << "sum " << std::hex << fnv1a(text) << std::dec
       << '\n';
}

std::optional<BenchmarkResults>
read(std::istream &is, const std::string &name)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string all = buf.str();

    // The checksum line covers everything before it; verify first so
    // a flipped bit anywhere (header, numbers, sentinel) is caught
    // before any value is trusted. Version mismatches are reported as
    // such (nullopt) without requiring a checksum, so stale-format
    // files read as "stale", not "corrupt".
    {
        std::istringstream hdr(all);
        std::string ver;
        if (!(hdr >> ver) || ver != version)
            return std::nullopt;
    }
    std::size_t sumPos = all.rfind("\nsum ");
    if (sumPos == std::string::npos)
        return std::nullopt;    // truncated before the checksum line
    const std::string payload = all.substr(0, sumPos + 1);
    std::istringstream sumLine(all.substr(sumPos + 1));
    std::string tag, hex;
    if (!(sumLine >> tag >> hex) || tag != "sum" || hex.empty() ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
        return std::nullopt;
    }
    std::uint64_t sum = 0;
    auto [sumEnd, sumErr] =
        std::from_chars(hex.data(), hex.data() + hex.size(), sum, 16);
    if (sumErr != std::errc() || sumEnd != hex.data() + hex.size() ||
        fnv1a(payload) != sum)
        return std::nullopt;    // bit rot / torn write

    std::istringstream in(payload);
    Tokens tok{in};
    try {
        tok.expect(version);
        BenchmarkResults r;
        r.name = name;
        r.globalFrequency = tok.real();
        const std::uint64_t numLegs = tok.u64();
        if (numLegs > 1000)
            return std::nullopt;    // implausible; refuse to allocate
        tok.expect("baseline");
        readRunBody(tok, r.baseline);
        tok.expect("mcd");
        readRunBody(tok, r.mcdBaseline);
        r.legs.reserve(numLegs);
        for (std::uint64_t i = 0; i < numLegs; ++i) {
            tok.expect("leg");
            ControllerLeg leg;
            leg.spec.name = tok.next();
            leg.scheduleSize = tok.u64();
            readRunBody(tok, leg.run);
            r.legs.push_back(std::move(leg));
        }
        tok.expect("end");  // truncated mid-number or mid-record
        return r;
    } catch (const FatalError &) {
        return std::nullopt;
    }
}

} // namespace expcache

namespace {

/** An invariant record's members, closing the object they fill. */
void
violationFields(json::Writer &w, const obs::InvariantViolation &v)
{
    w.field("rule", v.rule).field("domain", domainShortName(v.domain))
        .field("tickPs", v.tick).field("observed", v.observed)
        .field("bound", v.bound).endObject();
}

/** Emit one RunResult as a JSON object. */
void
jsonRun(json::Writer &w, const RunResult &r)
{
    w.beginObject();
    if (r.error) {
        // A failed leg: the numeric fields are meaningless zeros, so
        // emit the structured error instead.
        const RunError &e = *r.error;
        w.field("failed", true);
        w.key("error").beginObject(json::Inline)
            .field("site", e.site).field("kind", e.kind)
            .field("message", e.message).field("attempts", e.attempts)
            .endObject();
        w.endObject();
        return;
    }
    if (r.attempts > 1)
        w.field("attempts", r.attempts);
    w.field("execTimePs", r.execTime).field("committed", r.committed)
        .field("ipc", r.ipc).field("totalEnergy", r.totalEnergy)
        .field("energyDelay", r.energyDelay);
    w.key("domains").beginArray(json::Inline);
    for (int d = 0; d < numDomains; ++d) {
        const DomainSummary &s = r.domains[d];
        w.beginObject(json::Inline)
            .field("name", domainShortName(static_cast<Domain>(d)))
            .field("cycles", s.cycles).field("energy", s.energy)
            .field("avgFrequencyHz", s.avgFrequency)
            .field("minFrequencyHz", s.minFrequency)
            .field("maxFrequencyHz", s.maxFrequency)
            .field("reconfigurations", s.reconfigurations).endObject();
    }
    w.endArray();
    if (r.sampling) {
        const SamplingSummary &ss = *r.sampling;
        w.key("sampling").beginObject(json::Inline)
            .field("windows", ss.windows)
            .field("detailedCommitted", ss.detailedCommitted)
            .field("ffExecuted", ss.ffExecuted)
            .field("estFfTimePs", ss.estFfTimePs)
            .field("estFfEnergy", ss.estFfEnergy)
            .field("haltDuringFf", ss.haltDuringFf)
            .field("timePerInstCv", ss.timePerInstCv)
            .field("energyPerInstCv", ss.energyPerInstCv).endObject();
    }
    if (r.telemetry) {
        r.telemetry->stats().writeJson(w.key("stats"));
        if (const obs::InvariantEngine *inv = r.telemetry->invariants()) {
            w.key("invariants").beginObject(json::Inline)
                .field("checks", inv->checks())
                .field("violations", inv->violations());
            if (!inv->records().empty()) {
                w.key("records").beginArray(json::Inline);
                for (const obs::InvariantViolation &v : inv->records())
                    violationFields(w.beginObject(json::Inline), v);
                w.endArray();
            }
            w.endObject();
        }
    }
    w.endObject();
}

} // namespace

const ControllerLeg *
BenchmarkResults::findLeg(std::string_view leg) const
{
    for (const ControllerLeg &l : legs) {
        if (l.spec.name == leg)
            return &l;
    }
    return nullptr;
}

const RunResult &
BenchmarkResults::leg(std::string_view leg) const
{
    const ControllerLeg *l = findLeg(leg);
    if (!l) {
        fatal("BenchmarkResults: no leg named '" + std::string(leg) +
              "' in row '" + name + "'");
    }
    return l->run;
}

std::size_t
BenchmarkResults::scheduleSize(std::string_view leg) const
{
    const ControllerLeg *l = findLeg(leg);
    return l ? l->scheduleSize : 0;
}

std::size_t
BenchmarkResults::failedLegs() const
{
    std::size_t n = 0;
    forEachRun(*this, [&](const std::string &, const RunResult &run) {
        n += run.failed() ? 1 : 0;
    });
    return n;
}

int
matrixExitCode(const std::vector<BenchmarkResults> &rows)
{
    std::size_t failed = 0;
    std::size_t total = 0;
    for (const BenchmarkResults &r : rows) {
        total += r.totalLegs();
        failed += r.failedLegs();
    }
    if (!failed)
        return exitOk;
    return failed == total ? exitTotalFailure : exitPartialFailure;
}

std::uint64_t
countInvariantViolations(const std::vector<BenchmarkResults> &rows)
{
    std::uint64_t n = 0;
    for (const BenchmarkResults &r : rows) {
        forEachRun(r, [&](const std::string &, const RunResult &run) {
            if (run.telemetry && run.telemetry->invariants())
                n += run.telemetry->invariants()->violations();
        });
    }
    return n;
}

bool
invariantsFatalFromEnv()
{
    return config::RunSpec::resolve().boolean("invariantsFatal");
}

namespace {

/** A table entry for a number-valued config field. */
template <auto Field>
ConfigOption
numberOption(const char *name)
{
    using T = std::remove_reference_t<
        decltype(std::declval<ExperimentConfig &>().*Field)>;
    return {
        name,
        [](ExperimentConfig &c, const std::string &what,
           const std::string &text) {
            if constexpr (std::is_same_v<T, double>)
                c.*Field = spec::parseDouble(what, text);
            else if constexpr (std::is_same_v<T, int>)  // counts >= 1
                c.*Field = static_cast<int>(spec::parseInt(
                    what, text, 1, std::numeric_limits<int>::max()));
            else
                c.*Field = spec::parseU64(what, text);
        },
        [](const ExperimentConfig &c) {
            if constexpr (std::is_same_v<T, double>)
                return config::canonicalDouble(c.*Field);
            else
                return std::to_string(c.*Field);
        },
        false};
}

const std::vector<ConfigOption> configTable = {
    numberOption<&ExperimentConfig::dilationHigh>("dilationHigh"),
    numberOption<&ExperimentConfig::dilationLow>("dilationLow"),
    numberOption<&ExperimentConfig::dvfsTimeScale>("dvfsTimeScale"),
    {"faultPlan",
     [](ExperimentConfig &c, const std::string &, const std::string &t) {
         c.faults = t.empty() ? nullptr
                              : std::make_shared<const fault::FaultPlan>(
                                    fault::FaultPlan::parse(t));
     },
     [](const ExperimentConfig &c) {
         return c.faults ? c.faults->toSpec() : std::string();
     },
     true},
    {"invariants",
     [](ExperimentConfig &c, const std::string &, const std::string &t) {
         c.telemetry.invariants = t;
     },
     [](const ExperimentConfig &c) { return c.telemetry.invariants; },
     true},
    numberOption<&ExperimentConfig::legAttempts>("legAttempts"),
    {"legs",
     [](ExperimentConfig &c, const std::string &, const std::string &t) {
         c.legs = legsFromSpec(t);
     },
     [](const ExperimentConfig &c) { return legsToSpec(c.legs); },
     true},
    {"model",
     [](ExperimentConfig &c, const std::string &what,
        const std::string &t) {
         if (t.empty())
             return;
         std::optional<DvfsKind> k = dvfsKindFromName(t);
         if (!k)
             fatal(what + ": unknown DVFS model '" + t + "' (valid: " +
                   dvfsKindNames() + ")");
         c.model = *k;
     },
     [](const ExperimentConfig &c) {
         return std::string(dvfsKindName(c.model));
     },
     false},
    {"sampling",
     [](ExperimentConfig &c, const std::string &, const std::string &t) {
         c.sampling.reset();
         if (!t.empty())
             c.sampling = SamplingParams::fromSpec(t);
     },
     [](const ExperimentConfig &c) {
         return c.sampling ? c.sampling->spec() : std::string();
     },
     false},
    numberOption<&ExperimentConfig::scale>("scale"),
    numberOption<&ExperimentConfig::seed>("seed"),
    numberOption<&ExperimentConfig::watchdogNoProgressEdges>(
        "watchdogEdges"),
    numberOption<&ExperimentConfig::watchdogMaxTicks>("watchdogTicks"),
};

} // namespace

const std::vector<ConfigOption> &
configOptions()
{
    return configTable;
}

const ConfigOption &
configOption(std::string_view name)
{
    for (const ConfigOption &o : configTable) {
        if (name == o.name)
            return o;
    }
    panic("configOption: no ExperimentConfig binding for option '" +
          std::string(name) + "'");
}

ExperimentConfig
experimentConfigFromSpec(const config::RunSpec &spec, DvfsKind model,
                         const std::string &defaultCacheDir)
{
    ExperimentConfig ec;
    ec.model = model;
    for (const ConfigOption &o : configTable) {
        if (!o.fillsUnset)
            o.read(ec, o.name, spec.str(o.name));
    }
    // An option left at its default takes the caller's directory; an
    // explicitly empty value (MCD_CACHE_DIR=) still disables caching.
    ec.cacheDir = spec.isDefault("cacheDir") ? defaultCacheDir
                                             : spec.str("cacheDir");
    return ec;
}

std::vector<std::string>
benchmarkNamesFromSpec(const config::RunSpec &spec)
{
    std::vector<std::string> names;
    std::string filter = spec.str("benchmarks");
    if (filter.empty()) {
        for (const WorkloadInfo &w : workloads::all())
            names.emplace_back(w.name);
        return names;
    }
    for (const std::string &item : config::splitList(filter)) {
        bool known = false;
        for (const WorkloadInfo &w : workloads::all())
            known = known || item == w.name;
        if (!known)
            fatal("benchmarks: unknown benchmark '" + item + "'");
        // A repeated name would run, print and average its rows twice
        // and write a stats document with duplicate keys.
        if (std::find(names.begin(), names.end(), item) != names.end())
            fatal("benchmarks: benchmark '" + item + "' listed twice");
        names.push_back(item);
    }
    if (names.empty())
        fatal("benchmarks: empty benchmark list");
    return names;
}

std::vector<std::string>
ExperimentConfig::validateAll() const
{
    std::vector<std::string> errs;
    auto fail = [&](std::string m) { errs.push_back(std::move(m)); };

    if (scale < 1)
        fail("ExperimentConfig: scale must be >= 1");
    auto dilation = [&](double d, const std::string &what) {
        if (!std::isfinite(d) || d <= 0.0 || d >= 1.0)
            fail("ExperimentConfig: " + what +
                 " must lie in (0, 1) (got " + std::to_string(d) + ")");
    };
    dilation(dilationLow, "dilationLow");
    dilation(dilationHigh, "dilationHigh");
    if (dilationLow > dilationHigh)
        fail("ExperimentConfig: dilationLow must not exceed "
             "dilationHigh");
    if (!std::isfinite(dvfsTimeScale) || dvfsTimeScale <= 0.0)
        fail("ExperimentConfig: dvfsTimeScale must be finite and > 0");
    if (legAttempts < 1)
        fail("ExperimentConfig: legAttempts must be >= 1");
    if (online.interval == 0)
        fail("ExperimentConfig: online.interval must be > 0");
    if (sampling) {
        try {
            sampling->validate();
        } catch (const FatalError &e) {
            fail(e.what());
        }
    }
    // Compile the invariant spec now so a typo aborts with a usage
    // error before any leg runs (parseSpec fatal()s on bad input).
    if (!telemetry.invariants.empty()) {
        try {
            obs::InvariantEngine::parseSpec(telemetry.invariants);
        } catch (const FatalError &e) {
            fail(e.what());
        }
    }

    // Leg-set validation (an empty vector means "defaults", resolved
    // by the runner or runMatrix; the defaults pass by construction).
    for (std::size_t i = 0; i < legs.size(); ++i) {
        const LegSpec &l = legs[i];
        if (l.name.empty() ||
            l.name.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                     "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                     "0123456789_.-") !=
                std::string::npos) {
            fail("ExperimentConfig: invalid leg name '" + l.name +
                 "' (use [A-Za-z0-9_.-]+)");
        }
        if (l.name == "baseline" || l.name == "mcdBaseline")
            fail("ExperimentConfig: leg name '" + l.name +
                 "' is reserved for the fixed reference runs");
        for (std::size_t j = 0; j < i; ++j) {
            if (legs[j].name == l.name)
                fail("ExperimentConfig: duplicate leg name '" +
                     l.name + "'");
        }
        switch (l.kind) {
          case LegSpec::Kind::ScheduleReplay:
            dilation(l.dilation, "leg '" + l.name + "' dilation");
            break;
          case LegSpec::Kind::GlobalSearch: {
            bool found = false;
            for (const LegSpec &o : legs) {
                if (o.name == l.reference &&
                    o.kind != LegSpec::Kind::GlobalSearch) {
                    found = true;
                    break;
                }
            }
            if (!found) {
                fail("ExperimentConfig: leg '" + l.name +
                     "' references '" + l.reference +
                     "', which is not a non-search leg in the set");
            }
            break;
          }
          case LegSpec::Kind::Controller: {
            // Dry-build the controller so an unknown name (the fatal
            // enumerates the registered ones) or a malformed param
            // spec aborts the matrix up front, not mid-run.
            try {
                ControllerContext ctx{DvfsTable{}, seed, online};
                ControllerRegistry::instance().make(l.controller, ctx,
                                                    l.params);
            } catch (const FatalError &e) {
                fail(e.what());
            }
            break;
          }
        }
    }
    return errs;
}

void
ExperimentConfig::validate() const
{
    std::vector<std::string> errs = validateAll();
    if (errs.empty())
        return;
    if (errs.size() == 1)
        fatal(errs.front());
    std::string msg = "ExperimentConfig: " + std::to_string(errs.size()) +
        " invalid settings:";
    for (const std::string &e : errs)
        msg += "\n  - " + e;
    fatal(msg);
}

namespace {

/**
 * The (name, actual canonical value) rows of the effectiveConfig
 * block: every affectsResults option from the registry, valued from
 * the *actual* finished-run configuration — not the resolved spec —
 * so feeding the block back via --config reproduces the run even when
 * the calling program set values programmatically (provenance then
 * reads "code"). Config fields print through configOptions(); the
 * benchmarks run and the controllers/tournament leg pickers are the
 * only other rows. Host and output options are deliberately absent:
 * results are bit-identical across MCD_JOBS/cache/output settings,
 * and the block must be too.
 */
std::vector<std::pair<std::string, std::string>>
effectiveOptions(const ExperimentConfig &cfg,
                 const std::vector<BenchmarkResults> &rows,
                 const config::RunSpec &spec)
{
    std::string benches;
    for (const BenchmarkResults &r : rows) {
        if (!benches.empty())
            benches += ",";
        benches += r.name;
    }
    std::vector<std::pair<std::string, std::string>> out;
    for (const config::OptionDef &o : config::options()) {
        if (!o.affectsResults)
            continue;
        std::string_view name = o.name;
        std::string v;
        if (name == "benchmarks")
            v = benches;
        else if (name == "controllers" || name == "tournament")
            v = spec.str(name);
        else
            v = configOption(name).print(cfg);
        out.emplace_back(std::string(name), std::move(v));
    }
    return out;
}

} // namespace

void
writeResultsJson(std::ostream &os, const ExperimentConfig &cfg,
                 const std::vector<BenchmarkResults> &rows)
{
    json::Writer w(os);
    w.beginObject().key("config").beginObject()
        .field("scale", cfg.scale).field("model", dvfsKindName(cfg.model))
        .field("dvfsTimeScale", cfg.dvfsTimeScale)
        .field("dilationLow", cfg.dilationLow)
        .field("dilationHigh", cfg.dilationHigh)
        .field("onlineIntervalPs", cfg.online.interval)
        .field("seed", cfg.seed);
    // Sampled matrices are clearly labeled; a full-detail document
    // stays byte-identical to pre-sampling builds.
    if (cfg.sampling)
        w.field("sampling", cfg.sampling->spec());
    const config::RunSpec spec = config::RunSpec::resolve();
    config::writeEffectiveConfigJson(w.endObject().key("effectiveConfig"),
                                     spec, effectiveOptions(cfg, rows, spec));
    w.key("benchmarks").beginArray();
    for (const BenchmarkResults &r : rows) {
        // The legacy schedule-size keys survive the leg refactor so
        // documents from the default leg set stay byte-identical.
        w.beginObject().field("name", r.name)
            .field("globalFrequencyHz", r.globalFrequency)
            .field("schedule1Size", r.scheduleSize("dyn1"))
            .field("schedule5Size", r.scheduleSize("dyn5"));
        w.key("runs").beginObject();
        forEachRun(r, [&](const std::string &tag, const RunResult &run) {
            jsonRun(w.key(tag), run);
        });
        w.endObject().key("derived").beginObject();
        // Derived metrics are ratios against the baseline leg, so a
        // failed run (all-zero numerics) or a failed baseline would
        // emit nonsense — skip them.
        auto derived = [&](const std::string &tag, const RunResult &run) {
            if (run.failed() || r.baseline.failed())
                return;
            w.key(tag).beginObject(json::Inline)
                .field("perfDegradation", r.perfDegradation(run))
                .field("energySavings", r.energySavings(run))
                .field("edpImprovement", r.edpImprovement(run))
                .endObject();
        };
        derived("mcdBaseline", r.mcdBaseline);
        for (const ControllerLeg &l : r.legs)
            derived(l.spec.name, l.run);
        w.endObject().endObject();
    }
    w.endArray();

    // Failure surface: emitted only when something failed, so a clean
    // matrix's document stays byte-identical to earlier versions.
    bool anyFailed = false;
    for (const BenchmarkResults &r : rows)
        anyFailed = anyFailed || r.anyFailed();
    if (anyFailed) {
        w.key("failures").beginArray();
        for (const BenchmarkResults &r : rows) {
            forEachRun(r, [&](const std::string &tag,
                              const RunResult &run) {
                if (!run.failed())
                    return;
                const RunError &e = *run.error;
                w.beginObject(json::Inline)
                    .field("benchmark", r.name).field("leg", tag)
                    .field("kind", e.kind).field("attempts", e.attempts)
                    .field("message", e.message).endObject();
            });
        }
        w.endArray().field("exitCode", matrixExitCode(rows));
    }

    // Invariant surface: likewise emitted only when a rule tripped,
    // so invariant-free documents do not change shape.
    if (countInvariantViolations(rows)) {
        w.key("invariantViolations").beginArray();
        for (const BenchmarkResults &r : rows) {
            forEachRun(r, [&](const std::string &tag,
                              const RunResult &run) {
                if (!run.telemetry || !run.telemetry->invariants())
                    return;
                const obs::InvariantEngine *inv =
                    run.telemetry->invariants();
                for (const obs::InvariantViolation &v : inv->records()) {
                    violationFields(w.beginObject(json::Inline)
                                        .field("benchmark", r.name)
                                        .field("leg", tag),
                                    v);
                }
            });
        }
        w.endArray();
    }
    w.endObject();
    os << '\n';
}

std::vector<LeaderboardRow>
computeLeaderboard(const std::vector<BenchmarkResults> &rows)
{
    std::vector<LeaderboardRow> out;
    if (rows.empty())
        return out;
    // The leg set is uniform across rows (one config per matrix), so
    // the first row names the contenders.
    for (const ControllerLeg &contender : rows[0].legs) {
        LeaderboardRow lr;
        lr.spec = contender.spec;
        double edp = 0.0, energy = 0.0, perf = 0.0;
        for (const BenchmarkResults &r : rows) {
            const ControllerLeg *l = r.findLeg(contender.spec.name);
            if (!l)
                continue;
            if (l->run.failed() || r.baseline.failed()) {
                ++lr.failed;
                continue;
            }
            ++lr.completed;
            edp += r.edpImprovement(l->run);
            energy += r.energySavings(l->run);
            perf += r.perfDegradation(l->run);
        }
        if (lr.completed) {
            lr.meanEdpImprovement = edp / lr.completed;
            lr.meanEnergySavings = energy / lr.completed;
            lr.meanPerfDegradation = perf / lr.completed;
        }
        out.push_back(std::move(lr));
    }
    std::sort(out.begin(), out.end(),
              [](const LeaderboardRow &a, const LeaderboardRow &b) {
                  if (a.meanEdpImprovement != b.meanEdpImprovement)
                      return a.meanEdpImprovement > b.meanEdpImprovement;
                  return a.spec.name < b.spec.name;
              });
    return out;
}

void
writeLeaderboardJson(std::ostream &os, const ExperimentConfig &cfg,
                     const std::vector<BenchmarkResults> &rows)
{
    std::vector<LeaderboardRow> board = computeLeaderboard(rows);
    json::Writer w(os);
    w.beginObject().key("tournament").beginObject()
        .field("benchmarks", rows.size()).field("legs", board.size())
        .field("model", dvfsKindName(cfg.model))
        .field("scale", cfg.scale).field("seed", cfg.seed).endObject();
    w.key("leaderboard").beginArray();
    for (std::size_t i = 0; i < board.size(); ++i) {
        const LeaderboardRow &lr = board[i];
        w.beginObject(json::Inline)
            .field("rank", i + 1).field("name", lr.spec.name)
            .field("kind", legKindName(lr.spec.kind))
            .field("controller", lr.spec.controller)
            .field("params", lr.spec.params)
            .field("meanEdpImprovement", lr.meanEdpImprovement)
            .field("meanEnergySavings", lr.meanEnergySavings)
            .field("meanPerfDegradation", lr.meanPerfDegradation)
            .field("benchmarksCompleted", lr.completed)
            .field("benchmarksFailed", lr.failed).endObject();
    }
    w.endArray().endObject();
    os << '\n';
}

std::vector<NamedRun>
namedRuns(const std::vector<BenchmarkResults> &rows)
{
    std::vector<NamedRun> out;
    for (const BenchmarkResults &row : rows) {
        forEachRun(row, [&](const std::string &tag, const RunResult &run) {
            out.push_back({row.name + "/" + tag, &run});
        });
    }
    return out;
}

void
writeTelemetryStatsJson(
    std::ostream &os, const std::vector<NamedRun> &runs,
    const obs::StatsRegistry *matrix, const obs::StatsRegistry *host,
    const std::function<void(json::Writer &)> &effectiveConfig)
{
    obs::StatsRegistry merged;
    json::Writer w(os);
    w.beginObject().key("runs").beginObject();
    for (const NamedRun &nr : runs) {
        if (!nr.run || !nr.run->telemetry)
            continue;
        const obs::StatsRegistry &reg = nr.run->telemetry->stats();
        merged.merge(reg);
        reg.writeJson(w.key(nr.name));
    }
    w.endObject();
    merged.writeJson(w.key("merged"));
    if (matrix)
        matrix->writeJson(w.key("matrix"));
    if (host)
        host->writeJson(w.key("host"));
    if (effectiveConfig)
        effectiveConfig(w.key("effectiveConfig"));
    w.endObject();
    os << '\n';
}

void
writeTelemetryTrace(std::ostream &os, const std::vector<NamedRun> &runs)
{
    std::vector<obs::TraceProcess> procs;
    std::size_t events = 0;
    Tick span = 0;
    for (const NamedRun &nr : runs) {
        if (nr.run && nr.run->telemetry) {
            const obs::TraceExporter &trace = nr.run->telemetry->trace();
            procs.push_back({nr.name, &trace});
            events += trace.events().size();
            for (const obs::TraceEvent &e : trace.events())
                span = std::max(span, e.ts + e.dur);
        }
    }
    obs::writeChromeTrace(os, procs);
    inform("trace export: " + std::to_string(events) + " events from " +
           std::to_string(procs.size()) + " runs spanning " +
           formatTick(span));
}

ExperimentRunner::ExperimentRunner(ExperimentConfig cfg)
    : config(std::move(cfg))
{
    if (config.legs.empty())
        config.legs = defaultLegs(config);
}

SimConfig
ExperimentRunner::makeSimConfig(ClockingStyle style,
                                const std::string &site) const
{
    SimConfig sc;
    sc.clocking = style;
    sc.seed = config.seed;
    sc.telemetry = config.telemetry;
    sc.watchdogNoProgressEdges = config.watchdogNoProgressEdges;
    sc.watchdogMaxTicks = config.watchdogMaxTicks;
    sc.sampling = config.sampling;
    sc.faults = config.faults.get();
    sc.faultSite = site;
    return sc;
}

RunResult
ExperimentRunner::runOnce(const Program &prog, const SimConfig &sc) const
{
    McdProcessor proc(sc, prog);
    return proc.run();
}

std::string
ExperimentRunner::cacheKey(const std::string &name) const
{
    // Every result-shaping field, as its option's canonical text (so
    // two configs share a file only when every option would print the
    // same), plus the online-queue defaults, which have no option.
    // Faults and telemetry never reach a stored row: injected rows are
    // not stored, telemetry does not perturb the simulation, and a
    // cache fault must damage the file the clean run reads.
    ExperimentConfig keyed = config;
    keyed.faults.reset();
    keyed.telemetry = {};
    std::string text;
    for (const ConfigOption &o : configOptions())
        text += std::string(o.name) + "=" + o.print(keyed) + "\n";
    const OnlineQueueParams &oq = config.online;
    text += "online=" + std::to_string(oq.interval);
    for (double v : {oq.attackThreshold, oq.highWater, oq.holdWater,
                     oq.idleWater})
        text += "," + config::canonicalDouble(v);
    for (int v : {oq.attackPoints, oq.decayPoints, oq.idleDecayPoints,
                  oq.scaleFrontEnd ? 1 : 0})
        text += "," + std::to_string(v);
    char hex[24];
    std::snprintf(hex, sizeof(hex), "-%016llx",
                  static_cast<unsigned long long>(fnv1a(text)));
    return name + hex;
}

std::string
ExperimentRunner::cachePath(const std::string &name) const
{
    if (config.cacheDir.empty())
        return {};
    return config.cacheDir + "/" + cacheKey(name) + ".txt";
}

std::optional<BenchmarkResults>
ExperimentRunner::loadCache(const std::string &name) const
{
    // Cached results carry no telemetry, so a telemetry-collecting
    // matrix must actually run (storing is still fine: telemetry does
    // not perturb the simulation, so the records stay valid).
    if (config.telemetry.enabled())
        return std::nullopt;
    // Sampled results are estimates with a stated error bound; the
    // cache stores exact full-detail numbers only.
    if (config.sampling)
        return std::nullopt;
    // A benchmark with armed leg faults must actually run, or the
    // cache would mask the injection.
    if (config.faults && config.faults->legFaultsFor(name))
        return std::nullopt;
    std::string path = cachePath(name);
    if (path.empty())
        return std::nullopt;

    // Injected cache damage: break the file on disk before the read,
    // so the checksum verification and quarantine below are exercised
    // against real filesystem state.
    if (config.faults) {
        if (auto kind = config.faults->cacheFault(name))
            fault::damageFile(path, *kind);
    }

    obs::HostProfiler::Scope prof =
        obs::HostProfiler::instance().phase("cache.read", name);

    std::ifstream in(path);
    if (!in)
        return std::nullopt;

    // A stale format version is expected churn (silent recompute); a
    // file with the *current* version that still fails to parse or
    // checksum is damage worth flagging.
    std::string header;
    std::getline(in, header);
    if (header != expcache::version)
        return std::nullopt;
    in.clear();
    in.seekg(0);
    if (auto cached = expcache::read(in, name)) {
        // Belt and braces: the key already hashes the leg set, but
        // verify the record's leg names anyway; a mismatch means a
        // hash collision or hand-edited file — recompute silently.
        if (cached->legs.size() != config.legs.size())
            return std::nullopt;
        for (std::size_t i = 0; i < config.legs.size(); ++i) {
            if (cached->legs[i].spec.name != config.legs[i].name)
                return std::nullopt;
        }
        // Cache records carry only the leg name; rehydrate the full
        // specs (kind, display, params) from the live config.
        for (std::size_t i = 0; i < config.legs.size(); ++i)
            cached->legs[i].spec = config.legs[i];
        return cached;
    }
    in.close();

    // Quarantine: move the bad bytes aside (kept for inspection) so
    // they can never poison this or a later run, then recompute.
    std::error_code ec;
    std::filesystem::rename(path, path + ".corrupt", ec);
    if (!ec) {
        warn("experiment cache " + path +
             " is corrupt; quarantined as .corrupt and recomputing");
        ++quarantines;
    }
    return std::nullopt;
}

void
ExperimentRunner::storeCache(const BenchmarkResults &r) const
{
    // Never publish degraded rows: a failed leg's zeros would silently
    // satisfy every later run. Rows produced under armed leg faults
    // are likewise tainted (a flaky leg that retried to success is
    // numerically clean, but keeping the rule kind-independent keeps
    // injected matrices byte-identical to uncached ones).
    if (r.anyFailed())
        return;
    if (config.sampling)
        return;     // estimates never enter the exact-result cache
    if (config.faults && config.faults->legFaultsFor(r.name))
        return;
    std::string path = cachePath(r.name);
    if (path.empty())
        return;
    obs::HostProfiler::Scope prof =
        obs::HostProfiler::instance().phase("cache.write", r.name);
    std::error_code ec;
    std::filesystem::create_directories(config.cacheDir, ec);

    // Write to a temporary and rename into place so a concurrently
    // running bench binary can never observe a torn cache file. The
    // pid suffix keeps two processes racing on the same key from
    // interleaving writes within one temporary.
    std::string tmp = path + ".tmp" + std::to_string(::getpid());
    {
        std::ofstream out(tmp);
        if (!out)
            return;
        expcache::write(out, r);
        if (!out) {
            out.close();
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

RunResult
ExperimentRunner::profileLeg(const Program &prog, const IntervalSink *sink,
                             const std::string &site) const
{
    // Baseline MCD (all domains statically at 1 GHz); doubles as the
    // profiling run for the offline tool when a trace is wanted.
    SimConfig profCfg = makeSimConfig(ClockingStyle::Mcd, site);
    profCfg.collectTrace = sink != nullptr;
    // The offline tool needs every instruction's timestamps: the
    // profiling run always executes in full detail.
    profCfg.sampling.reset();
    McdProcessor prof(profCfg, prog);
    if (sink)
        prof.streamTrace(*sink);
    return prof.run();
}

RunResult
ExperimentRunner::controllerLeg(const Program &prog, const LegSpec &leg,
                                const std::string &site) const
{
    // A registry-built controller drives MCD clocking at runtime.
    // Seeded from the experiment seed so the leg is reproducible and
    // job-count independent.
    SimConfig sc = makeSimConfig(ClockingStyle::Mcd, site);
    sc.dvfs = config.model;
    sc.dvfsTimeScale = config.dvfsTimeScale;
    ControllerContext ctx{DvfsTable{}, config.seed, config.online};
    std::unique_ptr<DvfsController> ctrl =
        ControllerRegistry::instance().make(leg.controller, ctx,
                                            leg.params);
    sc.controller = ctrl.get();
    return runOnce(prog, sc);
}

OfflineAnalyzer
ExperimentRunner::analyzerFor(double target_dilation) const
{
    return OfflineAnalyzer(OfflineAnalyzer::configFor(
        target_dilation, config.model, config.dvfsTimeScale));
}

RunResult
ExperimentRunner::dynamicLeg(const Program &prog,
                             const ShakenTrace &shaken,
                             double target_dilation,
                             const std::string &site,
                             std::size_t &schedule_size) const
{
    AnalysisResult analysis = [&] {
        obs::HostProfiler::Scope prof =
            obs::HostProfiler::instance().phase("analyze", site);
        return analyzerFor(target_dilation).cluster(shaken);
    }();
    SimConfig dynCfg = makeSimConfig(ClockingStyle::Mcd, site);
    dynCfg.dvfs = config.model;
    dynCfg.dvfsTimeScale = config.dvfsTimeScale;
    dynCfg.schedule = &analysis.schedule;
    RunResult run = runOnce(prog, dynCfg);
    schedule_size = analysis.schedule.size();
    return run;
}

RunResult
ExperimentRunner::globalLeg(const Program &prog,
                            const BenchmarkResults &r,
                            const RunResult &reference,
                            const std::string &site,
                            Hertz &frequency) const
{
    // Global voltage scaling: single clock at the table frequency
    // whose degradation best matches the reference leg (paper
    // Section 4; dynamic-5% in the default matrix): of the points a
    // binary search visits, the closest one, first visited on a tie.
    // Predictions anchored on the baseline's clock settle most visits;
    // the rest are simulated (global_search.hh).
    const double target = r.perfDegradation(reference);
    const DvfsTable table;
    SimConfig sc = makeSimConfig(ClockingStyle::SingleClock, site);
    const Hertz baseFreq = sc.domainFrequency[0];
    sc.mem.dramScalesWithClock = true;
    std::vector<double> predicted(table.numPoints());
    for (int i = 0; i < table.numPoints(); ++i)
        predicted[i] = baseFreq / table.point(i).frequency - 1.0;

    std::vector<RunResult> runs(table.numPoints());
    GlobalPick pick = searchGlobalPoint(
        predicted, target,
        config.sampling ? globalBandSampled : globalBandDetailed,
        [&](int i) {
            const Hertz f = table.point(i).frequency;
            char detail[32];
            std::snprintf(detail, sizeof(detail), "@%.0f", f / 1e6);
            obs::HostProfiler::Scope prof =
                obs::HostProfiler::instance().phase("probe",
                                                    site + detail);
            sc.domainFrequency = {f, f, f, f};
            runs[i] = runOnce(prog, sc);
            return r.perfDegradation(runs[i]);
        });
    frequency = table.point(pick.index).frequency;
    return std::move(runs[pick.index]);
}

RunResult
ExperimentRunner::runGuarded(const std::string &bench,
                             const std::string &leg,
                             const std::function<RunResult()> &body,
                             const char *phase) const
{
    const std::string site = bench + "/" + leg;
    // The leg's slice; a "simulate" slice is the leg's wall time and
    // peak RSS in the host profile.
    obs::HostProfiler::Scope profScope =
        obs::HostProfiler::instance().phase(phase, site);
    RunError err;
    for (int attempt = 1; attempt <= config.legAttempts; ++attempt) {
        try {
            // The injection point is a pure function of (site,
            // attempt), and attempts are strictly sequential within
            // one leg, so outcomes are job-count independent.
            if (config.faults)
                config.faults->onLegAttempt(site, attempt);
            RunResult r = body();
            r.attempts = attempt;
            return r;
        } catch (const fault::InjectedFault &e) {
            err = {site, "injected", e.what(), attempt};
            if (e.transient() && attempt < config.legAttempts)
                continue;               // bounded deterministic retry
            break;
        } catch (const WatchdogError &e) {
            err = {site, "watchdog", e.what(), attempt};
            break;
        } catch (const FatalError &e) {
            err = {site, "fatal", e.what(), attempt};
            break;
        } catch (const PanicError &e) {
            err = {site, "panic", e.what(), attempt};
            break;
        } catch (const std::exception &e) {
            err = {site, "exception", e.what(), attempt};
            break;
        } catch (...) {
            err = {site, "exception", "non-standard exception", attempt};
            break;
        }
    }
    warn("leg " + site + " failed (" + err.kind + ", attempt " +
         std::to_string(err.attempts) + "): " + err.message);
    RunResult failed;
    failed.benchmark = bench;
    failed.attempts = err.attempts;
    failed.error = std::move(err);
    return failed;
}

/** One benchmark's row in flight. Stage 0 is the baseline, stage 1
 *  the profiling run with its shake, and stage 2 + i leg i. */
struct ExperimentRunner::Graph
{
    /** What one interval task leaves for finishShake(). */
    struct IntervalSlot
    {
        ShakenInterval shaken;
        std::exception_ptr error;
    };

    struct Stage
    {
        std::vector<std::size_t> inputs;    //!< read in this order
        std::vector<std::size_t> readers;
        std::atomic<std::size_t> waiting{0};    //!< unfinished inputs
        std::string failedRun;  //!< root cause; empty = output usable
    };

    Graph(Program p, std::size_t legs)
        : prog(std::move(p)), picks(legs), stages(legs + 2),
          unfinished(legs + 2)
    {}

    /** Stage @p s's run in the row. */
    RunResult &
    run(std::size_t s)
    {
        return s >= 2 ? r.legs[s - 2].run : s == 0 ? r.baseline
                                                   : r.mcdBaseline;
    }

    /** Stage @p s's leg name. */
    std::string
    leg(std::size_t s) const
    {
        return s >= 2 ? r.legs[s - 2].spec.name
                      : s == 0 ? "baseline" : "mcdBaseline";
    }

    const Program prog;
    BenchmarkResults r;
    ShakenTrace shaken;
    /** Slot k holds interval k. Only the profiling run appends; a
     *  deque never moves the slots the tasks write. */
    std::deque<IntervalSlot> slots;
    /** The profiling run's own count plus its unfinished interval
     *  tasks; whichever brings it to zero runs finishShake(). */
    std::atomic<std::size_t> shakePending{1};
    std::vector<Hertz> picks;           //!< each global leg's frequency
    std::vector<Stage> stages;
    std::atomic<std::size_t> unfinished;
    std::promise<BenchmarkResults> done;
};

BenchmarkResults
ExperimentRunner::runBenchmark(const std::string &name)
{
    // A zero-worker pool executes every stage inline at submission.
    ThreadPool inlinePool(0);
    return runBenchmark(name, inlinePool);
}

BenchmarkResults
ExperimentRunner::runBenchmark(const std::string &name, ThreadPool &pool)
{
    std::future<BenchmarkResults> row = startBenchmark(name, pool);
    return pool.wait(row);
}

std::future<BenchmarkResults>
ExperimentRunner::startBenchmark(const std::string &name, ThreadPool &pool)
{
    if (auto cached = loadCache(name)) {
        std::promise<BenchmarkResults> hit;
        hit.set_value(std::move(*cached));
        return hit.get_future();
    }

    auto g = std::make_shared<Graph>(workloads::build(name, config.scale),
                                     config.legs.size());
    BenchmarkResults &r = g->r;
    r.name = name;
    for (const LegSpec &spec : config.legs)
        r.legs.push_back({spec, RunResult{}, 0});

    // Wire each leg's inputs; the table is read-only from here on.
    for (std::size_t i = 0; i < r.legs.size(); ++i) {
        const LegSpec &spec = r.legs[i].spec;
        Graph::Stage &st = g->stages[2 + i];
        if (spec.kind == LegSpec::Kind::ScheduleReplay) {
            st.inputs = {1};
        } else if (spec.kind == LegSpec::Kind::GlobalSearch) {
            const ControllerLeg *ref = r.findLeg(spec.reference);
            st.inputs = {0};
            if (ref && ref->spec.kind != LegSpec::Kind::GlobalSearch)
                st.inputs.push_back(2 + (ref - r.legs.data()));
            else
                st.failedRun = spec.reference;  // validate() rejects it
        }
        st.waiting = st.inputs.size();
        for (std::size_t in : st.inputs)
            g->stages[in].readers.push_back(2 + i);
    }

    // Sources go by their inputs, never by the countdown: an inline
    // pool may already have run a reader whose count reached zero.
    // They start in the serial order: the baseline, the controller
    // legs, then the profiling run.
    std::future<BenchmarkResults> row = g->done.get_future();
    auto start = [&](std::size_t s) {
        if (g->stages[s].inputs.empty())
            pool.submit([this, g, s, &pool] { runStage(g, s, pool); });
    };
    start(0);
    for (std::size_t i = 0; i < config.legs.size(); ++i)
        start(2 + i);
    start(1);
    return row;
}

void
ExperimentRunner::runStage(const std::shared_ptr<Graph> &g,
                           std::size_t stage, ThreadPool &pool) const
{
    BenchmarkResults &r = g->r;
    Graph::Stage &st = g->stages[stage];
    const LegSpec *spec = stage >= 2 ? &r.legs[stage - 2].spec : nullptr;
    const std::string leg = g->leg(stage);
    const std::string site = r.name + "/" + leg;
    RunResult &out = g->run(stage);

    // The first failed input, in input order, is the root cause.
    for (std::size_t in : st.inputs) {
        if (!g->stages[in].failedRun.empty()) {
            st.failedRun = g->stages[in].failedRun;
            break;
        }
    }
    if (!st.failedRun.empty()) {
        out.benchmark = r.name;
        out.attempts = 0;       // never attempted
        out.error = RunError{site, "dependency",
                             st.failedRun + " leg failed", 0};
        finishStage(g, stage, pool);
        return;
    }

    // The profiling run streams its trace only when a replay leg reads
    // it: each interval becomes a pool task as soon as it closes, and
    // the profiling stage finishes once the run and every interval
    // task have (finishShake). The guard retries only faults injected
    // before the body runs, so one run fills the slots.
    const bool streams = stage == 1 && !st.readers.empty();
    IntervalSink sink;
    if (streams) {
        const DepGraphConfig graph =
            analyzerFor(config.dilationHigh).cfg().graph;
        sink = {graph.intervalLength, robLookahead(graph),
                [this, g, &pool](IntervalRecords iv) {
                    submitInterval(g, std::move(iv), pool);
                }};
    }
    out = runGuarded(r.name, leg, [&] {
        if (stage == 0)
            return runOnce(g->prog, makeSimConfig(
                ClockingStyle::SingleClock, site));
        if (stage == 1)
            return profileLeg(g->prog, streams ? &sink : nullptr, site);
        if (spec->kind == LegSpec::Kind::ScheduleReplay)
            return dynamicLeg(g->prog, g->shaken, spec->dilation, site,
                              r.legs[stage - 2].scheduleSize);
        if (spec->kind == LegSpec::Kind::GlobalSearch)
            return globalLeg(g->prog, r, r.legs[st.inputs[1] - 2].run,
                             site, g->picks[stage - 2]);
        return controllerLeg(g->prog, *spec, site);
    });
    if (!streams)
        finishStage(g, stage, pool);
    else if (g->shakePending.fetch_sub(1) == 1)
        finishShake(g, pool);
}

void
ExperimentRunner::submitInterval(const std::shared_ptr<Graph> &g,
                                 IntervalRecords iv,
                                 ThreadPool &pool) const
{
    Graph::IntervalSlot &slot = g->slots.emplace_back();
    g->shakePending.fetch_add(1);
    pool.submit([this, g, &slot, iv = std::move(iv), &pool]() mutable {
        try {
            if (intervalHook)
                intervalHook(g->r.name, iv.index);
            // Any target gives the same shake; clustering reads it.
            const OfflineAnalyzer analyzer = analyzerFor(config.dilationHigh);
            const std::string label =
                g->r.name + " interval " + std::to_string(iv.index);
            IntervalGraph graph =
                analyzer.buildInterval(iv.records, iv.count, label);
            slot.shaken = analyzer.shakeInterval(graph, label);
        } catch (...) {
            slot.error = std::current_exception();
        }
        std::vector<InstTrace>().swap(iv.records);
        if (g->shakePending.fetch_sub(1) == 1)
            finishShake(g, pool);
    });
}

void
ExperimentRunner::finishShake(const std::shared_ptr<Graph> &g,
                              ThreadPool &pool) const
{
    // The target-independent half of the offline tool is one guarded
    // step (fault site <bench>/shake; an analyze slice, not a leg, in
    // the host profile). It sums the intervals in interval order, so
    // the totals do not depend on which task finished first, and
    // fails with the first failed interval's error.
    if (!g->r.mcdBaseline.failed()) {
        RunResult shake = runGuarded(g->r.name, "shake", [&] {
            ShakenTrace shaken;
            for (const Graph::IntervalSlot &slot : g->slots) {
                if (slot.error)
                    std::rethrow_exception(slot.error);
                shaken.append(slot.shaken);
            }
            g->shaken = std::move(shaken);
            return RunResult{};
        }, "analyze");
        if (shake.failed())
            g->stages[1].failedRun = "shake";
    }
    std::deque<Graph::IntervalSlot>().swap(g->slots);
    finishStage(g, 1, pool);
}

void
ExperimentRunner::finishStage(const std::shared_ptr<Graph> &g,
                              std::size_t stage, ThreadPool &pool) const
{
    BenchmarkResults &r = g->r;
    Graph::Stage &st = g->stages[stage];
    if (g->run(stage).failed() && st.failedRun.empty())
        st.failedRun = g->leg(stage);

    // This stage's slices are closed and its records freed, so a
    // reader run inline here nests in neither.
    for (std::size_t rd : st.readers) {
        if (g->stages[rd].waiting.fetch_sub(1) == 1)
            pool.submit([this, g, rd, &pool] { runStage(g, rd, pool); });
    }
    if (g->unfinished.fetch_sub(1) != 1)
        return;

    // The row is complete. Its global frequency is the pick of the
    // last global leg, in leg order, that completed.
    for (std::size_t i = 0; i < r.legs.size(); ++i) {
        if (r.legs[i].spec.kind == LegSpec::Kind::GlobalSearch &&
            !r.legs[i].run.failed())
            r.globalFrequency = g->picks[i];
    }
    storeCache(r);
    g->done.set_value(std::move(r));
}

namespace {

/** Honor the resultsJson option: dump the finished matrix there. */
void
maybeWriteJson(const config::RunSpec &spec, const ExperimentConfig &cfg,
               const std::vector<BenchmarkResults> &out)
{
    std::string path = spec.str("resultsJson");
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "  MCD_RESULTS_JSON: cannot write %s\n",
                     path.c_str());
        return;
    }
    writeResultsJson(os, cfg, out);
}

/** Honor the leaderboardJson option: dump the ranked leaderboard. */
void
maybeWriteLeaderboard(const config::RunSpec &spec,
                      const ExperimentConfig &cfg,
                      const std::vector<BenchmarkResults> &out)
{
    std::string path = spec.str("leaderboardJson");
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr,
                     "  MCD_LEADERBOARD_JSON: cannot write %s\n",
                     path.c_str());
        return;
    }
    writeLeaderboardJson(os, cfg, out);
}

/**
 * Honor the statsOut / traceOut / profOut options: dump merged
 * telemetry and, when the host profiler is armed (@p host non-null),
 * its profile. The stats document's host.* block and the profile
 * print the same snapshot.
 */
void
maybeWriteTelemetry(const config::RunSpec &spec,
                    const ExperimentConfig &cfg,
                    const std::vector<BenchmarkResults> &out,
                    const obs::StatsRegistry *matrix,
                    const obs::HostProfiler::Snapshot *host)
{
    auto writeTo = [&](const char *option, auto writer) {
        std::string path = spec.str(option);
        if (path.empty())
            return;
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "  %s: cannot write %s\n", option,
                         path.c_str());
            return;
        }
        writer(os);
    };
    std::vector<NamedRun> named = namedRuns(out);
    writeTo("statsOut", [&](std::ostream &os) {
        auto eff = [&](json::Writer &w) {
            config::writeEffectiveConfigJson(
                w, spec, effectiveOptions(cfg, out, spec));
        };
        obs::StatsRegistry hostStats;
        if (host)
            host->publish(hostStats);
        writeTelemetryStatsJson(os, named, matrix,
                                host ? &hostStats : nullptr, eff);
    });
    writeTo("traceOut", [&](std::ostream &os) {
        writeTelemetryTrace(os, named);
    });
    if (host) {
        writeTo("profOut",
                [&](std::ostream &os) { host->writeProfile(os); });
    }
}

/**
 * The effective matrix config: the traceOut / statsOut options imply
 * full telemetry collection when the caller left it off; the
 * invariants, sampling and faultPlan options fill (through
 * configOptions()) the fields the caller left unset; and an empty leg
 * vector resolves to the legs option, the tournament
 * set (tournament option), or the paper defaults — optionally
 * filtered down by the controllers option. Spec options only ever
 * fill dimensions the caller left at their defaults, so programmatic
 * configurations (tests, the examples) stay authoritative.
 */
ExperimentConfig
effectiveConfig(const ExperimentConfig &cfg,
                const config::RunSpec &spec)
{
    ExperimentConfig e = cfg;
    if (!e.telemetry.enabled() &&
        (!spec.str("traceOut").empty() ||
         !spec.str("statsOut").empty())) {
        e.telemetry = obs::TelemetryConfig::full();
    }
    // The invariant engine rides on top of whatever channels are
    // already on (it is itself a telemetry channel, so it also turns
    // enabled() on and thereby bypasses the cache).
    auto fill = [&](const char *name) {
        configOption(name).read(e, name, spec.str(name));
    };
    if (e.telemetry.invariants.empty())
        fill("invariants");
    if (!e.sampling)
        fill("sampling");
    if (!e.faults)
        fill("faultPlan");

    if (e.legs.empty())
        fill("legs");
    if (e.legs.empty())
        e.legs = spec.boolean("tournament") ? tournamentLegs(e)
                                            : defaultLegs(e);
    if (std::string v = spec.str("controllers"); !v.empty()) {
        std::vector<std::string> want = config::splitList(v);
        auto available = [&] {
            std::string known;
            for (const LegSpec &l : e.legs) {
                if (!known.empty())
                    known += ", ";
                known += l.name;
            }
            return known;
        };
        if (want.empty())
            fatal("MCD_CONTROLLERS: no leg names given (available: " +
                  available() + ")");
        for (const std::string &n : want) {
            bool known = false;
            for (const LegSpec &l : e.legs)
                known = known || l.name == n;
            if (!known)
                fatal("MCD_CONTROLLERS: unknown leg '" + n +
                      "' (available: " + available() + ")");
        }
        std::vector<LegSpec> kept;
        for (LegSpec &l : e.legs) {
            if (std::find(want.begin(), want.end(), l.name) !=
                want.end()) {
                kept.push_back(std::move(l));
            }
        }
        for (const LegSpec &l : kept) {
            if (l.kind != LegSpec::Kind::GlobalSearch)
                continue;
            bool refKept = false;
            for (const LegSpec &o : kept)
                refKept = refKept || o.name == l.reference;
            if (!refKept)
                fatal("MCD_CONTROLLERS: leg '" + l.name +
                      "' needs its reference leg '" + l.reference +
                      "'; add it to the list or drop '" + l.name + "'");
        }
        e.legs = std::move(kept);
    }
    return e;
}

/**
 * Matrix health counters for the stats document and the end-of-run
 * summary. Returns true (via @p degraded) when anything failed, was
 * retried, or was quarantined — a clean matrix skips the registry
 * entirely so its stats JSON is byte-identical to earlier versions.
 */
bool
matrixHealth(obs::StatsRegistry &reg,
             const std::vector<BenchmarkResults> &rows,
             std::uint64_t quarantined)
{
    std::uint64_t ok = 0;
    std::uint64_t failedLegs = 0;
    std::uint64_t retried = 0;
    for (const BenchmarkResults &r : rows) {
        std::uint64_t f = r.failedLegs();
        failedLegs += f;
        ok += r.totalLegs() - f;
        forEachRun(r, [&](const std::string &, const RunResult &run) {
            retried += run.attempts > 1 ? 1 : 0;
        });
    }
    reg.counter("matrix.legs.ok", "matrix legs that completed")
        .inc(ok);
    reg.counter("matrix.legs.failed",
                "matrix legs recorded as failed").inc(failedLegs);
    reg.counter("matrix.legs.retried",
                "matrix legs that needed more than one attempt")
        .inc(retried);
    reg.counter("matrix.cache.quarantined",
                "corrupt cache files renamed *.corrupt").inc(quarantined);
    return failedLegs != 0 || retried != 0 || quarantined != 0;
}

/** Shared post-run tail: documents, health, degradation summary. */
void
finishMatrix(const ExperimentConfig &cfg,
             const std::vector<BenchmarkResults> &out,
             const ExperimentRunner &runner)
{
    const config::RunSpec spec = config::RunSpec::resolve();
    obs::StatsRegistry health;
    bool degraded = matrixHealth(health, out, runner.cacheQuarantines());
    // Every slice is closed once the matrix ends: one snapshot feeds
    // both the stats document and the profile.
    std::optional<obs::HostProfiler::Snapshot> host;
    if (obs::HostProfiler::instance().enabled())
        host = obs::HostProfiler::instance().snapshot();
    maybeWriteJson(spec, cfg, out);
    maybeWriteLeaderboard(spec, cfg, out);
    maybeWriteTelemetry(spec, cfg, out, degraded ? &health : nullptr,
                        host ? &*host : nullptr);
    if (std::uint64_t v = countInvariantViolations(out)) {
        warn("invariants: " + std::to_string(v) +
             " violation(s) recorded (see results JSON "
             "\"invariantViolations\")");
    }
    if (degraded) {
        std::uint64_t failedLegs = 0;
        std::uint64_t totalLegs = 0;
        for (const BenchmarkResults &r : out) {
            failedLegs += r.failedLegs();
            totalLegs += r.totalLegs();
        }
        if (failedLegs)
            warn("matrix degraded: " + std::to_string(failedLegs) +
                 " of " + std::to_string(totalLegs) +
                 " legs failed (see results JSON \"failures\")");
    }
}

} // namespace

std::vector<BenchmarkResults>
runMatrix(const ExperimentConfig &cfg,
          const std::vector<std::string> &names, int jobs, bool progress)
{
    // Touch the shared workload table once before any worker does, so
    // its (already thread-safe) lazy construction never races.
    workloads::all();

    // Arm (or clear) the host profiler for this matrix; every phase
    // scope below is a no-op when the profiler output is unset.
    const config::RunSpec spec = config::RunSpec::resolve();
    obs::HostProfiler &hostProf = obs::HostProfiler::instance();
    hostProf.reset(!spec.str("profOut").empty());

    ExperimentConfig ecfg;
    {
        obs::HostProfiler::Scope prof = hostProf.phase("validate");
        ecfg = effectiveConfig(cfg, spec);
        ecfg.validate();
    }
    // Telemetry-collecting legs must actually simulate (cached rows
    // carry no telemetry), so a configured cache is silently useless.
    // Say so once, rather than leaving users to wonder why a cached
    // matrix re-runs.
    if (ecfg.telemetry.enabled() && !ecfg.cacheDir.empty()) {
        inform("telemetry collection is on: the experiment cache is "
               "bypassed (cached rows carry no telemetry), legs re-run");
    }
    std::vector<BenchmarkResults> out(names.size());
    ExperimentRunner runner(ecfg);

    // A zero-worker pool runs each benchmark inline as it starts, in
    // workload order: jobs=1 is the serial path.
    ThreadPool pool(jobs > 1 ? static_cast<unsigned>(jobs) : 0u);
    std::vector<std::future<BenchmarkResults>> rows;
    rows.reserve(names.size());
    for (const std::string &name : names) {
        if (progress)
            std::fprintf(stderr, "  running %s...\n", name.c_str());
        rows.push_back(runner.startBenchmark(name, pool));
    }
    // Collect in workload order, independent of completion order. No
    // stage waits, so the calling thread blocks instead of helping:
    // jobs=N keeps at most N threads runnable.
    for (std::size_t i = 0; i < names.size(); ++i)
        out[i] = rows[i].get();
    finishMatrix(ecfg, out, runner);
    return out;
}

} // namespace mcd
