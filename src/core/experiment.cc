#include "experiment.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string_view>
#include <utility>

#include <unistd.h>

#include "clock/operating_points.hh"
#include "common/log.hh"
#include "config/runspec.hh"
#include "control/registry.hh"
#include "obs/host_prof.hh"
#include "workloads/workloads.hh"

namespace mcd {

namespace {

/** FNV-1a 64-bit (cache payload checksum and leg-set key hash). */
std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

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

/**
 * Visit every run of a row in canonical order: the two fixed
 * reference runs, then the leg vector. @p f is called with
 * (name, run).
 */
template <typename F>
void
forEachRun(const BenchmarkResults &r, F &&f)
{
    f(std::string("baseline"), r.baseline);
    f(std::string("mcdBaseline"), r.mcdBaseline);
    for (const ControllerLeg &l : r.legs)
        f(l.spec.name, l.run);
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
LegSpec::keyToken() const
{
    // display is presentation-only; everything else shapes the run.
    switch (kind) {
      case Kind::ScheduleReplay: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), ":r%.6f", dilation);
        return name + buf;
      }
      case Kind::GlobalSearch:
        return name + ":g:" + reference;
      case Kind::Controller:
        return name + ":c:" + controller + ":" + params;
    }
    return name;
}

namespace {

/** Shortest-round-trip double formatting (17 digits always parse
 *  back to the same bits; trim to the shortest prefix that does). */
std::string
doubleSpec(double v)
{
    for (int prec = 1; prec <= 17; ++prec) {
        std::ostringstream os;
        os << std::setprecision(prec) << v;
        if (std::stod(os.str()) == v)
            return os.str();
    }
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

} // namespace

std::string
LegSpec::toSpec() const
{
    std::string head = name;
    if (!display.empty() && display != name)
        head += "~" + display;
    switch (kind) {
      case Kind::ScheduleReplay:
        return head + "=replay:" + doubleSpec(dilation);
      case Kind::GlobalSearch:
        return head + "=global:" + reference;
      case Kind::Controller:
        return head + "=ctrl:" + controller +
            (params.empty() ? std::string() : "@" + params);
    }
    return head;
}

LegSpec
LegSpec::fromSpec(const std::string &spec)
{
    auto bad = [&](const std::string &why) {
        fatal("LegSpec: malformed spec '" + spec + "': " + why +
              " (grammar: name[~display]=replay:<dilation>|"
              "global:<ref>|ctrl:<name>[@<params>])");
    };
    std::size_t eq = spec.find('=');
    if (eq == std::string::npos)
        bad("missing '='");
    std::string head = spec.substr(0, eq);
    std::string body = spec.substr(eq + 1);
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
        std::string num = body.substr(7);
        double dil = 0.0;
        try {
            std::size_t used = 0;
            dil = std::stod(num, &used);
            if (used != num.size())
                bad("trailing characters after dilation");
        } catch (const std::exception &) {
            bad("unparseable dilation '" + num + "'");
        }
        return scheduleReplay(name, dil, display);
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
legsFromSpec(const std::string &spec)
{
    std::vector<LegSpec> out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t bar = spec.find('|', pos);
        std::string one = spec.substr(pos, bar == std::string::npos
                                      ? std::string::npos : bar - pos);
        if (!one.empty())
            out.push_back(LegSpec::fromSpec(one));
        if (bar == std::string::npos)
            break;
        pos = bar + 1;
    }
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

bool
readRunBody(std::istream &is, RunResult &r)
{
    if (!(is >> r.execTime >> r.committed >> r.ipc >> r.totalEnergy >>
          r.energyDelay)) {
        return false;
    }
    for (int d = 0; d < numDomains; ++d) {
        DomainSummary &s = r.domains[d];
        if (!(is >> s.cycles >> s.energy >> s.avgFrequency >>
              s.minFrequency >> s.maxFrequency >> s.reconfigurations)) {
            return false;
        }
    }
    return true;
}

bool
readRun(std::istream &is, const char *tag, RunResult &r)
{
    std::string t;
    if (!(is >> t) || t != tag)
        return false;
    return readRunBody(is, r);
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
    if (fnv1a(payload) != std::strtoull(hex.c_str(), nullptr, 16))
        return std::nullopt;    // bit rot / torn write

    std::istringstream in(payload);
    std::string ver;
    if (!(in >> ver) || ver != version)
        return std::nullopt;
    BenchmarkResults r;
    r.name = name;
    std::size_t numLegs = 0;
    if (!(in >> r.globalFrequency >> numLegs))
        return std::nullopt;
    if (numLegs > 1000)
        return std::nullopt;    // implausible; refuse to allocate
    if (!readRun(in, "baseline", r.baseline) ||
        !readRun(in, "mcd", r.mcdBaseline)) {
        return std::nullopt;
    }
    r.legs.reserve(numLegs);
    for (std::size_t i = 0; i < numLegs; ++i) {
        std::string t;
        if (!(in >> t) || t != "leg")
            return std::nullopt;
        ControllerLeg leg;
        if (!(in >> leg.spec.name >> leg.scheduleSize))
            return std::nullopt;
        if (!readRunBody(in, leg.run))
            return std::nullopt;
        r.legs.push_back(std::move(leg));
    }
    std::string sentinel;
    if (!(in >> sentinel) || sentinel != "end")
        return std::nullopt;    // truncated mid-number or mid-record
    return r;
}

} // namespace expcache

namespace {

/** Emit one RunResult as a JSON object. */
void
jsonRun(std::ostream &os, const char *indent, const RunResult &r)
{
    if (r.error) {
        // A failed leg: the numeric fields are meaningless zeros, so
        // emit the structured error instead.
        const RunError &e = *r.error;
        os << "{\n"
           << indent << "  \"failed\": true,\n"
           << indent << "  \"error\": {\"site\": \""
           << obs::jsonEscape(e.site) << "\", \"kind\": \""
           << obs::jsonEscape(e.kind) << "\", \"message\": \""
           << obs::jsonEscape(e.message) << "\", \"attempts\": "
           << e.attempts << "}\n"
           << indent << "}";
        return;
    }
    os << "{\n";
    if (r.attempts > 1) {
        os << indent << "  \"attempts\": " << r.attempts << ",\n";
    }
    os << indent << "  \"execTimePs\": " << r.execTime << ",\n"
       << indent << "  \"committed\": " << r.committed << ",\n"
       << indent << "  \"ipc\": " << r.ipc << ",\n"
       << indent << "  \"totalEnergy\": " << r.totalEnergy << ",\n"
       << indent << "  \"energyDelay\": " << r.energyDelay << ",\n"
       << indent << "  \"domains\": [";
    for (int d = 0; d < numDomains; ++d) {
        const DomainSummary &s = r.domains[d];
        os << (d ? ", " : "") << "{\"name\": \""
           << domainShortName(static_cast<Domain>(d)) << "\""
           << ", \"cycles\": " << s.cycles
           << ", \"energy\": " << s.energy
           << ", \"avgFrequencyHz\": " << s.avgFrequency
           << ", \"minFrequencyHz\": " << s.minFrequency
           << ", \"maxFrequencyHz\": " << s.maxFrequency
           << ", \"reconfigurations\": " << s.reconfigurations << "}";
    }
    os << "]";
    if (r.sampling) {
        const SamplingSummary &ss = *r.sampling;
        os << ",\n" << indent << "  \"sampling\": {"
           << "\"windows\": " << ss.windows
           << ", \"detailedCommitted\": " << ss.detailedCommitted
           << ", \"ffExecuted\": " << ss.ffExecuted
           << ", \"estFfTimePs\": " << ss.estFfTimePs
           << ", \"estFfEnergy\": " << ss.estFfEnergy
           << ", \"haltDuringFf\": "
           << (ss.haltDuringFf ? "true" : "false")
           << ", \"timePerInstCv\": " << ss.timePerInstCv
           << ", \"energyPerInstCv\": " << ss.energyPerInstCv << "}";
    }
    if (r.telemetry) {
        os << ",\n" << indent << "  \"stats\": ";
        std::string inner = std::string(indent) + "  ";
        r.telemetry->stats().writeJson(os, inner.c_str());
        if (const obs::InvariantEngine *inv = r.telemetry->invariants()) {
            os << ",\n" << indent << "  \"invariants\": {\"checks\": "
               << inv->checks() << ", \"violations\": "
               << inv->violations();
            if (!inv->records().empty()) {
                os << ", \"records\": [";
                bool first = true;
                for (const obs::InvariantViolation &v : inv->records()) {
                    os << (first ? "" : ", ") << "{\"rule\": \""
                       << obs::jsonEscape(v.rule) << "\", \"domain\": \""
                       << domainShortName(v.domain)
                       << "\", \"tickPs\": " << v.tick
                       << ", \"observed\": " << v.observed
                       << ", \"bound\": " << v.bound << "}";
                    first = false;
                }
                os << "]";
            }
            os << "}";
        }
    }
    os << "\n" << indent << "}";
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

void
writeHostProfileFromEnv()
{
    obs::HostProfiler &prof = obs::HostProfiler::instance();
    if (!prof.enabled())
        return;
    std::string path = config::RunSpec::resolve().str("profOut");
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "  MCD_PROF_OUT: cannot write %s\n",
                     path.c_str());
        return;
    }
    prof.writeProfile(os);
}

ExperimentConfig
experimentConfigFromSpec(const config::RunSpec &spec, DvfsKind model,
                         const std::string &defaultCacheDir)
{
    ExperimentConfig ec;
    ec.model = model;
    if (std::string m = spec.str("model"); !m.empty()) {
        std::optional<DvfsKind> k = dvfsKindFromName(m);
        if (!k)
            fatal("model: unknown DVFS model '" + m + "' (valid: " +
                  dvfsKindNames() + ")");
        ec.model = *k;
    }
    ec.scale = static_cast<int>(spec.integer("scale"));
    ec.seed = spec.u64("seed");
    ec.dvfsTimeScale = spec.real("dvfsTimeScale");
    ec.dilationLow = spec.real("dilationLow");
    ec.dilationHigh = spec.real("dilationHigh");
    ec.legAttempts = static_cast<int>(spec.integer("legAttempts"));
    ec.watchdogNoProgressEdges = spec.u64("watchdogEdges");
    ec.watchdogMaxTicks = spec.u64("watchdogTicks");
    // An option left at its default takes the caller's directory; an
    // explicitly empty value (MCD_CACHE_DIR=) still disables caching.
    ec.cacheDir = spec.isDefault("cacheDir") ? defaultCacheDir
                                             : spec.str("cacheDir");
    if (std::string smp = spec.str("sampling"); !smp.empty())
        ec.sampling = SamplingParams::fromSpec(smp);
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
 * reads "code"). Host and output options are deliberately absent:
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
        else if (name == "controllers")
            v = spec.str("controllers");
        else if (name == "dilationHigh")
            v = config::canonicalDouble(cfg.dilationHigh);
        else if (name == "dilationLow")
            v = config::canonicalDouble(cfg.dilationLow);
        else if (name == "dvfsTimeScale")
            v = config::canonicalDouble(cfg.dvfsTimeScale);
        else if (name == "faultPlan")
            v = cfg.faults ? cfg.faults->toSpec() : "";
        else if (name == "invariants")
            v = cfg.telemetry.invariants;
        else if (name == "legAttempts")
            v = std::to_string(cfg.legAttempts);
        else if (name == "legs")
            v = legsToSpec(cfg.legs);
        else if (name == "model")
            v = dvfsKindName(cfg.model);
        else if (name == "sampling")
            v = cfg.sampling ? cfg.sampling->spec() : "";
        else if (name == "scale")
            v = std::to_string(cfg.scale);
        else if (name == "seed")
            v = std::to_string(cfg.seed);
        else if (name == "tournament")
            v = spec.str("tournament");
        else if (name == "watchdogEdges")
            v = std::to_string(cfg.watchdogNoProgressEdges);
        else if (name == "watchdogTicks")
            v = std::to_string(cfg.watchdogMaxTicks);
        else
            panic("effectiveOptions: unhandled result-shaping option "
                  + std::string(name));
        out.emplace_back(std::string(name), std::move(v));
    }
    return out;
}

/** The effectiveConfig fragment, rendered for embedding at
 *  @p indent. */
std::string
renderEffectiveConfig(const ExperimentConfig &cfg,
                      const std::vector<BenchmarkResults> &rows,
                      const config::RunSpec &spec,
                      const std::string &indent)
{
    std::ostringstream os;
    config::writeEffectiveConfigJson(os, indent, spec,
                                     effectiveOptions(cfg, rows, spec));
    return os.str();
}

} // namespace

void
writeResultsJson(std::ostream &os, const ExperimentConfig &cfg,
                 const std::vector<BenchmarkResults> &rows)
{
    os << std::setprecision(17);
    os << "{\n"
       << "  \"config\": {\n"
       << "    \"scale\": " << cfg.scale << ",\n"
       << "    \"model\": \"" << dvfsKindName(cfg.model) << "\",\n"
       << "    \"dvfsTimeScale\": " << cfg.dvfsTimeScale << ",\n"
       << "    \"dilationLow\": " << cfg.dilationLow << ",\n"
       << "    \"dilationHigh\": " << cfg.dilationHigh << ",\n"
       << "    \"onlineIntervalPs\": " << cfg.online.interval << ",\n"
       << "    \"seed\": " << cfg.seed;
    // Sampled matrices are clearly labeled; a full-detail document
    // stays byte-identical to pre-sampling builds.
    if (cfg.sampling)
        os << ",\n    \"sampling\": \"" << cfg.sampling->spec() << "\"";
    os << "\n  },\n"
       << "  \"effectiveConfig\": "
       << renderEffectiveConfig(cfg, rows, config::RunSpec::resolve(),
                                "  ")
       << ",\n"
       << "  \"benchmarks\": [";
    bool firstRow = true;
    for (const BenchmarkResults &r : rows) {
        os << (firstRow ? "" : ",") << "\n    {\n"
           << "      \"name\": \"" << r.name << "\",\n"
           << "      \"globalFrequencyHz\": " << r.globalFrequency
           << ",\n"
        // The legacy schedule-size keys survive the leg refactor so
        // documents from the default leg set stay byte-identical.
           << "      \"schedule1Size\": " << r.scheduleSize("dyn1")
           << ",\n"
           << "      \"schedule5Size\": " << r.scheduleSize("dyn5")
           << ",\n"
           << "      \"runs\": {\n";
        const std::size_t total = r.totalLegs();
        std::size_t idx = 0;
        forEachRun(r, [&](const std::string &tag, const RunResult &run) {
            os << "        \"" << obs::jsonEscape(tag) << "\": ";
            jsonRun(os, "        ", run);
            os << (++idx < total ? ",\n" : "\n");
        });
        os << "      },\n"
           << "      \"derived\": {";
        // Derived metrics are ratios against the baseline leg, so a
        // failed run (all-zero numerics) or a failed baseline would
        // emit nonsense (inf/nan is not even valid JSON) — skip them.
        bool firstDerived = true;
        auto derived = [&](const std::string &tag, const RunResult &run) {
            if (run.failed() || r.baseline.failed())
                return;
            os << (firstDerived ? "" : ",") << "\n"
               << "        \"" << obs::jsonEscape(tag) << "\": {"
               << "\"perfDegradation\": " << r.perfDegradation(run)
               << ", \"energySavings\": " << r.energySavings(run)
               << ", \"edpImprovement\": " << r.edpImprovement(run)
               << "}";
            firstDerived = false;
        };
        derived("mcdBaseline", r.mcdBaseline);
        for (const ControllerLeg &l : r.legs)
            derived(l.spec.name, l.run);
        os << "\n      }\n    }";
        firstRow = false;
    }
    os << "\n  ]";

    // Failure surface: emitted only when something failed, so a clean
    // matrix's document stays byte-identical to earlier versions.
    bool anyFailed = false;
    for (const BenchmarkResults &r : rows)
        anyFailed = anyFailed || r.anyFailed();
    if (anyFailed) {
        os << ",\n  \"failures\": [";
        bool first = true;
        for (const BenchmarkResults &r : rows) {
            forEachRun(r, [&](const std::string &tag,
                              const RunResult &run) {
                if (!run.failed())
                    return;
                const RunError &e = *run.error;
                os << (first ? "" : ",") << "\n    {"
                   << "\"benchmark\": \"" << obs::jsonEscape(r.name)
                   << "\", \"leg\": \"" << obs::jsonEscape(tag)
                   << "\", \"kind\": \"" << obs::jsonEscape(e.kind)
                   << "\", \"attempts\": " << e.attempts
                   << ", \"message\": \"" << obs::jsonEscape(e.message)
                   << "\"}";
                first = false;
            });
        }
        os << "\n  ],\n  \"exitCode\": " << matrixExitCode(rows);
    }

    // Invariant surface: likewise emitted only when a rule tripped,
    // so invariant-free documents do not change shape.
    if (countInvariantViolations(rows)) {
        os << ",\n  \"invariantViolations\": [";
        bool first = true;
        for (const BenchmarkResults &r : rows) {
            forEachRun(r, [&](const std::string &tag,
                              const RunResult &run) {
                if (!run.telemetry || !run.telemetry->invariants())
                    return;
                const obs::InvariantEngine *inv =
                    run.telemetry->invariants();
                for (const obs::InvariantViolation &v : inv->records()) {
                    os << (first ? "" : ",") << "\n    {"
                       << "\"benchmark\": \"" << obs::jsonEscape(r.name)
                       << "\", \"leg\": \"" << obs::jsonEscape(tag)
                       << "\", \"rule\": \"" << obs::jsonEscape(v.rule)
                       << "\", \"domain\": \"" << domainShortName(v.domain)
                       << "\", \"tickPs\": " << v.tick
                       << ", \"observed\": " << v.observed
                       << ", \"bound\": " << v.bound << "}";
                    first = false;
                }
            });
        }
        os << "\n  ]";
    }
    os << "\n}\n";
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
    os << std::setprecision(17);
    os << "{\n"
       << "  \"tournament\": {\n"
       << "    \"benchmarks\": " << rows.size() << ",\n"
       << "    \"legs\": " << board.size() << ",\n"
       << "    \"model\": \"" << dvfsKindName(cfg.model) << "\",\n"
       << "    \"scale\": " << cfg.scale << ",\n"
       << "    \"seed\": " << cfg.seed << "\n"
       << "  },\n"
       << "  \"leaderboard\": [";
    for (std::size_t i = 0; i < board.size(); ++i) {
        const LeaderboardRow &lr = board[i];
        os << (i ? "," : "") << "\n    {"
           << "\"rank\": " << i + 1
           << ", \"name\": \"" << obs::jsonEscape(lr.spec.name)
           << "\", \"kind\": \"" << legKindName(lr.spec.kind)
           << "\", \"controller\": \""
           << obs::jsonEscape(lr.spec.controller)
           << "\", \"params\": \"" << obs::jsonEscape(lr.spec.params)
           << "\", \"meanEdpImprovement\": " << lr.meanEdpImprovement
           << ", \"meanEnergySavings\": " << lr.meanEnergySavings
           << ", \"meanPerfDegradation\": " << lr.meanPerfDegradation
           << ", \"benchmarksCompleted\": " << lr.completed
           << ", \"benchmarksFailed\": " << lr.failed << "}";
    }
    os << "\n  ]\n}\n";
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
writeTelemetryStatsJson(std::ostream &os,
                        const std::vector<NamedRun> &runs,
                        const obs::StatsRegistry *matrix,
                        const obs::StatsRegistry *host,
                        const std::string *effectiveConfig)
{
    obs::StatsRegistry merged;
    os << "{\n  \"runs\": {";
    bool first = true;
    for (const NamedRun &nr : runs) {
        if (!nr.run || !nr.run->telemetry)
            continue;
        const obs::StatsRegistry &reg = nr.run->telemetry->stats();
        merged.merge(reg);
        os << (first ? "" : ",") << "\n    \""
           << obs::jsonEscape(nr.name) << "\": ";
        reg.writeJson(os, "    ");
        first = false;
    }
    os << "\n  },\n  \"merged\": ";
    merged.writeJson(os, "  ");
    if (matrix) {
        os << ",\n  \"matrix\": ";
        matrix->writeJson(os, "  ");
    }
    if (host) {
        os << ",\n  \"host\": ";
        host->writeJson(os, "  ");
    }
    if (effectiveConfig)
        os << ",\n  \"effectiveConfig\": " << *effectiveConfig;
    os << "\n}\n";
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
    // The online law's tuning parameters all shape the cached online
    // record, so fold them into the key to prevent stale aliasing.
    const OnlineQueueParams &oq = config.online;
    char buf[288];
    std::snprintf(buf, sizeof(buf),
                  "%s-s%d-%s-ts%.4f-d%.3f-%.3f"
                  "-oi%.2f-oa%.2f-%d-%d-%d-ow%.2f-%.2f-%.2f-%d"
                  "-seed%llu",
                  name.c_str(), config.scale, dvfsKindName(config.model),
                  config.dvfsTimeScale, config.dilationLow,
                  config.dilationHigh,
                  static_cast<double>(oq.interval) / 1e6,
                  oq.attackThreshold, oq.attackPoints, oq.decayPoints,
                  oq.idleDecayPoints, oq.highWater, oq.holdWater,
                  oq.idleWater, oq.scaleFrontEnd ? 1 : 0,
                  static_cast<unsigned long long>(config.seed));
    std::string key = buf;
    // The leg set shapes every cached record, so two matrices with
    // different legs (or the same leg names with different params)
    // must never share a file: fold a hash of the full leg-spec set
    // plus the leg count into the key.
    {
        std::string tokens;
        for (const LegSpec &l : config.legs) {
            tokens += l.keyToken();
            tokens += '|';
        }
        char legBuf[48];
        std::snprintf(legBuf, sizeof(legBuf), "-L%016llx-n%llu",
                      static_cast<unsigned long long>(fnv1a(tokens)),
                      static_cast<unsigned long long>(
                          config.legs.size()));
        key += legBuf;
    }
    // Sampled matrices are never cached (see loadCache/storeCache),
    // but fold the operating point into the key anyway so a sampled
    // and a full-detail matrix can never collide even if the bypass
    // rule changes.
    if (config.sampling)
        key += "-smp" + config.sampling->keyToken();
    return key;
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
ExperimentRunner::profileLeg(const Program &prog,
                             std::vector<InstTrace> *trace_out,
                             const std::string &site) const
{
    // Baseline MCD (all domains statically at 1 GHz); doubles as the
    // profiling run for the offline tool when a trace is wanted.
    SimConfig profCfg = makeSimConfig(ClockingStyle::Mcd, site);
    profCfg.collectTrace = trace_out != nullptr;
    // The offline tool needs every instruction's timestamps: the
    // profiling run always executes in full detail.
    profCfg.sampling.reset();
    McdProcessor prof(profCfg, prog);
    RunResult r = prof.run();
    if (trace_out)
        *trace_out = prof.takeTrace();
    return r;
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

ExperimentRunner::DynLeg
ExperimentRunner::dynamicLeg(const Program &prog,
                             const ShakenTrace &shaken,
                             double target_dilation,
                             const std::string &site) const
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
    DynLeg leg;
    leg.result = runOnce(prog, dynCfg);
    leg.scheduleSize = analysis.schedule.size();
    return leg;
}

ExperimentRunner::GlobalOut
ExperimentRunner::globalLeg(const Program &prog,
                            const BenchmarkResults &r,
                            const RunResult &reference,
                            const std::string &site) const
{
    // Global voltage scaling: single clock at the table frequency
    // whose degradation best matches the reference leg (paper
    // Section 4; dynamic-5% in the default matrix).
    double target = r.perfDegradation(reference);
    DvfsTable table;
    int lo = 0;
    int hi = table.numPoints() - 1;
    // Degradation decreases monotonically with frequency: find the
    // slowest point whose degradation does not exceed the target.
    GlobalOut best;
    best.frequency = table.fastest().frequency;
    double bestDist = 1e300;
    while (lo <= hi) {
        int mid = (lo + hi) / 2;
        Hertz f = table.point(mid).frequency;
        SimConfig sc = makeSimConfig(ClockingStyle::SingleClock, site);
        sc.domainFrequency = {f, f, f, f};
        sc.mem.dramScalesWithClock = true;
        RunResult res = runOnce(prog, sc);
        double deg = r.perfDegradation(res);
        double dist = std::fabs(deg - target);
        if (dist < bestDist) {
            bestDist = dist;
            best.result = res;
            best.frequency = f;
        }
        if (deg > target)
            lo = mid + 1;   // too slow; raise frequency
        else
            hi = mid - 1;   // within target; try slower
    }
    return best;
}

ExperimentRunner::DynamicRun
ExperimentRunner::runDynamic(const std::string &name,
                             double target_dilation)
{
    Program prog = workloads::build(name, config.scale);

    // Profiling run: baseline MCD at full speed, trace collection on.
    SimConfig profCfg = makeSimConfig(ClockingStyle::Mcd);
    profCfg.collectTrace = true;
    McdProcessor prof(profCfg, prog);
    prof.run();

    AnalysisResult analysis =
        analyzerFor(target_dilation).analyze(prof.trace().trace());

    SimConfig dynCfg = makeSimConfig(ClockingStyle::Mcd);
    dynCfg.dvfs = config.model;
    dynCfg.dvfsTimeScale = config.dvfsTimeScale;
    dynCfg.schedule = &analysis.schedule;
    dynCfg.recordFreqTrace = config.recordFreqTrace;

    DynamicRun out;
    out.result = runOnce(prog, dynCfg);
    out.analysis = std::move(analysis);
    return out;
}

RunResult
ExperimentRunner::runGuarded(const std::string &bench,
                             const std::string &leg,
                             const std::function<RunResult()> &body) const
{
    const std::string site = bench + "/" + leg;
    obs::HostProfiler &hostProf = obs::HostProfiler::instance();
    obs::HostProfiler::Scope profScope =
        hostProf.phase("simulate", site);
    auto wall0 = std::chrono::steady_clock::now();
    auto noteLeg = [&] {
        if (!hostProf.enabled())
            return;
        double ms = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0).count();
        hostProf.noteLeg(site, ms, obs::HostProfiler::peakRssKb());
    };
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
            noteLeg();
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
        }
    }
    warn("leg " + site + " failed (" + err.kind + ", attempt " +
         std::to_string(err.attempts) + "): " + err.message);
    noteLeg();
    RunResult failed;
    failed.benchmark = bench;
    failed.attempts = err.attempts;
    failed.error = std::move(err);
    return failed;
}

RunResult
ExperimentRunner::dependencyFailed(const std::string &bench,
                                   const std::string &leg,
                                   const std::string &upstream) const
{
    RunResult r;
    r.benchmark = bench;
    r.attempts = 0;     // never attempted
    r.error = RunError{bench + "/" + leg, "dependency",
                       upstream + " leg failed", 0};
    return r;
}

BenchmarkResults
ExperimentRunner::runBenchmark(const std::string &name)
{
    // A zero-worker pool executes every leg inline at submission, in
    // the same order as the historical serial code.
    ThreadPool inlinePool(0);
    return runBenchmark(name, inlinePool);
}

BenchmarkResults
ExperimentRunner::runBenchmark(const std::string &name, ThreadPool &pool)
{
    if (auto cached = loadCache(name))
        return *cached;

    BenchmarkResults r;
    r.name = name;
    r.legs.reserve(config.legs.size());
    for (const LegSpec &spec : config.legs)
        r.legs.push_back({spec, RunResult{}, 0});

    const Program prog = workloads::build(name, config.scale);

    // Every leg runs under runGuarded *inside* its submitted lambda:
    // a leg never throws across the pool boundary, so one dead leg
    // can neither abort the matrix nor strand sibling tasks that
    // still reference this frame's prog/trace.
    //
    // r.legs is fully sized above and never resized again, so element
    // pointers handed to lambdas stay valid for the frame's lifetime.

    // The singly clocked baseline is independent of everything else;
    // run it concurrently with the profiling leg.
    auto baseFut = pool.submit([this, &name, &prog] {
        return runGuarded(name, "baseline", [&] {
            return runOnce(prog,
                           makeSimConfig(ClockingStyle::SingleClock,
                                         name + "/baseline"));
        });
    });

    // Controller legs need neither the trace nor the baseline; fully
    // independent, so they fan out first.
    struct CtrlFut
    {
        std::size_t idx;
        std::future<RunResult> fut;
        bool settled = false;
    };
    std::vector<CtrlFut> ctrlFuts;
    for (std::size_t i = 0; i < r.legs.size(); ++i) {
        const LegSpec *spec = &r.legs[i].spec;
        if (spec->kind != LegSpec::Kind::Controller)
            continue;
        ctrlFuts.push_back({i, pool.submit([this, &name, &prog, spec] {
            return runGuarded(name, spec->name, [&] {
                return controllerLeg(prog, *spec,
                                     name + "/" + spec->name);
            });
        })});
    }
    auto settleController = [&](const std::string &legName) {
        for (CtrlFut &cf : ctrlFuts) {
            if (!cf.settled && r.legs[cf.idx].spec.name == legName) {
                r.legs[cf.idx].run = pool.wait(cf.fut);
                cf.settled = true;
            }
        }
    };

    // Baseline MCD / profiling run. It collects the trace only when a
    // schedule-replay leg will read it.
    const bool wantTrace = std::any_of(
        r.legs.begin(), r.legs.end(), [](const ControllerLeg &l) {
            return l.spec.kind == LegSpec::Kind::ScheduleReplay;
        });
    std::vector<InstTrace> trace;
    auto profFut = pool.submit([this, &name, &prog, &trace, wantTrace] {
        return runGuarded(name, "mcdBaseline", [&] {
            return profileLeg(prog, wantTrace ? &trace : nullptr,
                              name + "/mcdBaseline");
        });
    });
    r.mcdBaseline = pool.wait(profFut);

    // The target-independent half of the offline tool runs once, under
    // a leg guard of its own (site <bench>/shake), and every
    // schedule-replay leg clusters from its result. The trace is
    // freed as soon as it has been shaken.
    ShakenTrace shaken;
    std::string shakeUpstream;
    if (r.mcdBaseline.failed()) {
        // No profiling trace: the offline tool has nothing to chew on.
        shakeUpstream = "mcdBaseline";
    } else if (wantTrace) {
        RunResult shook = runGuarded(name, "shake", [&] {
            obs::HostProfiler::Scope prof = obs::HostProfiler::instance()
                .phase("analyze", name + "/shake");
            // Any target gives the same shake; clustering reads it.
            shaken = analyzerFor(config.dilationHigh).shakeTrace(trace);
            return RunResult{};
        });
        if (shook.failed())
            shakeUpstream = "shake";
    }
    std::vector<InstTrace>().swap(trace);

    // Schedule-replay legs cluster and simulate independently off the
    // shared (now read-only) shaken trace. The schedule sizes ride out
    // via the pre-sized vector, each slot written only before its
    // lambda returns (i.e. before wait() synchronizes with it).
    std::vector<std::size_t> schedSizes(r.legs.size(), 0);
    std::vector<std::pair<std::size_t, std::future<RunResult>>>
        replayFuts;
    for (std::size_t i = 0; i < r.legs.size(); ++i) {
        const LegSpec *spec = &r.legs[i].spec;
        if (spec->kind != LegSpec::Kind::ScheduleReplay)
            continue;
        if (!shakeUpstream.empty()) {
            r.legs[i].run = dependencyFailed(name, spec->name,
                                             shakeUpstream);
            continue;
        }
        replayFuts.emplace_back(
            i, pool.submit([this, &name, &prog, &shaken, &schedSizes,
                            spec, i] {
                return runGuarded(name, spec->name, [&] {
                    DynLeg leg = dynamicLeg(prog, shaken, spec->dilation,
                                            name + "/" + spec->name);
                    schedSizes[i] = leg.scheduleSize;
                    return leg.result;
                });
            }));
    }
    for (auto &[idx, fut] : replayFuts) {
        r.legs[idx].run = pool.wait(fut);
        r.legs[idx].scheduleSize = schedSizes[idx];
    }

    // Global-search legs need the baseline plus their reference leg;
    // they run last, on this thread (each is itself a serial binary
    // search of full simulations).
    r.baseline = pool.wait(baseFut);
    for (std::size_t i = 0; i < r.legs.size(); ++i) {
        const LegSpec &spec = r.legs[i].spec;
        if (spec.kind != LegSpec::Kind::GlobalSearch)
            continue;
        // The reference may itself be a controller leg still in
        // flight — settle it (and only it) before deciding.
        settleController(spec.reference);
        const ControllerLeg *ref = r.findLeg(spec.reference);
        if (r.baseline.failed() || !ref || ref->run.failed()) {
            std::string upstream = spec.reference;
            if (r.baseline.failed()) {
                upstream = "baseline";
            } else if (shakeUpstream == "shake" && ref &&
                       ref->spec.kind == LegSpec::Kind::ScheduleReplay) {
                // Name the root cause, not the replay leg it starved.
                upstream = shakeUpstream;
            }
            r.legs[i].run = dependencyFailed(name, spec.name, upstream);
            continue;
        }
        r.legs[i].run = runGuarded(name, spec.name, [&] {
            GlobalOut g = globalLeg(prog, r, ref->run,
                                    name + "/" + spec.name);
            r.globalFrequency = g.frequency;
            return g.result;
        });
    }

    for (CtrlFut &cf : ctrlFuts) {
        if (!cf.settled)
            r.legs[cf.idx].run = pool.wait(cf.fut);
    }

    storeCache(r);
    return r;
}

ExperimentRunner::OnlineRun
ExperimentRunner::runOnline(const std::string &name)
{
    Program prog = workloads::build(name, config.scale);
    OnlineRun out;
    out.mcdBaseline = runOnce(prog, makeSimConfig(ClockingStyle::Mcd));
    out.online = controllerLeg(
        prog, LegSpec::controllerLeg("online", "online-queue"), {});
    return out;
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

/** Honor the statsOut / traceOut options: dump merged telemetry. */
void
maybeWriteTelemetry(const config::RunSpec &spec,
                    const ExperimentConfig &cfg,
                    const std::vector<BenchmarkResults> &out,
                    const obs::StatsRegistry *matrix,
                    const obs::StatsRegistry *host)
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
        std::string eff = renderEffectiveConfig(cfg, out, spec, "  ");
        writeTelemetryStatsJson(os, named, matrix, host, &eff);
    });
    writeTo("traceOut", [&](std::ostream &os) {
        writeTelemetryTrace(os, named);
    });
}

/**
 * The effective matrix config: the traceOut / statsOut options imply
 * full telemetry collection when the caller left it off, the
 * faultPlan option supplies a fault plan when the caller passed none,
 * and an empty leg vector resolves to the legs option, the tournament
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
    if (e.telemetry.invariants.empty())
        e.telemetry.invariants = spec.str("invariants");
    if (!e.sampling) {
        if (std::string v = spec.str("sampling"); !v.empty())
            e.sampling = SamplingParams::fromSpec(v);
    }
    if (!e.faults) {
        if (std::string v = spec.str("faultPlan"); !v.empty())
            e.faults = std::make_shared<const fault::FaultPlan>(
                fault::FaultPlan::parse(v));
    }

    if (e.legs.empty()) {
        if (std::string v = spec.str("legs"); !v.empty())
            e.legs = legsFromSpec(v);
        else if (spec.boolean("tournament"))
            e.legs = tournamentLegs(e);
        else
            e.legs = defaultLegs(e);
    }
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
    obs::HostProfiler &prof = obs::HostProfiler::instance();
    obs::StatsRegistry hostStats;
    if (prof.enabled())
        prof.publish(hostStats);
    maybeWriteJson(spec, cfg, out);
    maybeWriteLeaderboard(spec, cfg, out);
    maybeWriteTelemetry(spec, cfg, out, degraded ? &health : nullptr,
                        prof.enabled() ? &hostStats : nullptr);
    writeHostProfileFromEnv();
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
    auto matrixStart = std::chrono::steady_clock::now();

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

    if (jobs <= 1) {
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (progress)
                std::fprintf(stderr, "  running %s...\n",
                             names[i].c_str());
            out[i] = runner.runBenchmark(names[i]);
        }
        finishMatrix(ecfg, out, runner);
        return out;
    }

    ThreadPool pool(static_cast<unsigned>(jobs));
    std::mutex progressMutex;
    std::vector<std::future<BenchmarkResults>> futs;
    futs.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        futs.push_back(pool.submit(
            [&runner, &pool, &names, &progressMutex, progress, i] {
                if (progress) {
                    std::lock_guard<std::mutex> lk(progressMutex);
                    std::fprintf(stderr, "  running %s...\n",
                                 names[i].c_str());
                }
                return runner.runBenchmark(names[i], pool);
            }));
    }
    // Collect in workload order, independent of completion order.
    for (std::size_t i = 0; i < names.size(); ++i)
        out[i] = pool.wait(futs[i]);
    if (hostProf.enabled()) {
        auto wall = std::chrono::steady_clock::now() - matrixStart;
        hostProf.notePool(
            pool.workerCount(), pool.tasksExecuted(), pool.busyNanos(),
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    wall).count()));
    }
    finishMatrix(ecfg, out, runner);
    return out;
}

} // namespace mcd
