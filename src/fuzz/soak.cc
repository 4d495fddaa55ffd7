#include "soak.hh"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "config/runspec.hh"
#include "fuzz/config_fuzzer.hh"
#include "fuzz/shrink.hh"
#include "obs/invariants.hh"

namespace mcd {
namespace fuzz {

const char *
outcomeClassName(OutcomeClass c)
{
    switch (c) {
      case OutcomeClass::Ok: return "ok";
      case OutcomeClass::Invariant: return "invariant";
      case OutcomeClass::Watchdog: return "watchdog";
      case OutcomeClass::LegFail: return "legfail";
      case OutcomeClass::Divergence: return "divergence";
      case OutcomeClass::Crash: return "crash";
    }
    return "?";
}

namespace {

/** What the *declared* fault plan predicts, keyed by leg name. */
struct Expectations
{
    /** leg -> RunError kind its failure should carry. */
    std::map<std::string, std::string> failKind;
    /** Legs where voltage_leads_freq violations are the plan. */
    std::map<std::string, bool> misorder;
};

/**
 * Derive expectations from the declared (not planted) fault plan,
 * given the retry budget of the scenario's experiment config. The
 * plan is in placeholder form ("leg:@/dyn5=throw"), so the leg name
 * is everything after the site's '/'.
 */
Expectations
expectationsOf(const Scenario &s, const ExperimentConfig &cfg)
{
    Expectations ex;
    const fault::FaultPlan plan = fault::FaultPlan::parse(s.faultSpec);
    for (const fault::FaultSpec &fs : plan.specs()) {
        std::string leg = fs.site.substr(fs.site.find('/') + 1);
        switch (fs.kind) {
          case fault::FaultKind::Throw:
            ex.failKind[leg] = "injected";
            break;
          case fault::FaultKind::Flaky:
            // k transient failures recover iff the retry budget
            // covers them; otherwise the leg fails like a throw.
            if (fs.count >= cfg.legAttempts)
                ex.failKind[leg] = "injected";
            break;
          case fault::FaultKind::Stall:
            ex.failKind[leg] = "watchdog";
            break;
          case fault::FaultKind::VfMisorder:
            ex.misorder[leg] = true;
            break;
          default:
            break;      // cache damage: no leg expectation
        }
    }
    return ex;
}

/** The metric part of a canonical rule text ("dilation<=0.5" ->
 *  "dilation"). */
std::string
ruleMetric(const std::string &rule)
{
    std::size_t end = 0;
    while (end < rule.size() &&
           (std::isalnum(static_cast<unsigned char>(rule[end])) ||
            rule[end] == '_'))
        ++end;
    return rule.substr(0, end);
}

/**
 * Byte-level digest of a result row: the full cache serialization
 * (every numeric field of every leg) plus the per-leg invariant
 * counts the cache format does not carry. Two runs of one scenario
 * must digest identically at any job count.
 */
std::uint64_t
digestRow(const BenchmarkResults &r)
{
    std::ostringstream os;
    expcache::write(os, r);
    forEachRun(r, [&](const std::string &leg, const RunResult &run) {
        std::uint64_t v = 0;
        if (run.telemetry && run.telemetry->invariants())
            v = run.telemetry->invariants()->violations();
        os << leg << ":" << v << "\n";
        if (run.failed())
            os << leg << ":err:" << run.error->kind << "\n";
    });
    return fnv1a(os.str());
}

/** Classify one completed row against the scenario's expectations. */
Outcome
classify(const Scenario &s, const ExperimentConfig &cfg,
         const BenchmarkResults &row)
{
    Expectations ex = expectationsOf(s, cfg);

    // Legs whose failure the plan predicts: dependents skipped
    // because of them are expected collateral, not findings.
    Outcome found;
    forEachRun(row, [&](const std::string &leg, const RunResult &run) {
        if (found.failed())
            return;         // first unexpected event wins
        if (run.failed()) {
            const RunError &err = *run.error;
            auto it = ex.failKind.find(leg);
            if (it != ex.failKind.end() && it->second == err.kind)
                return;     // the declared fault, as predicted
            if (err.kind == "dependency") {
                // "<upstream> leg failed": expected when the
                // upstream leg's failure was itself declared.
                std::string up = err.message.substr(
                    0, err.message.find(' '));
                if (ex.failKind.count(up))
                    return;
            }
            if (err.kind == "watchdog") {
                found.cls = OutcomeClass::Watchdog;
                found.signature = "watchdog@" + leg;
            } else {
                found.cls = OutcomeClass::LegFail;
                found.signature = "legfail:" + err.kind + "@" + leg;
            }
            found.detail = err.message;
            return;
        }
        if (run.telemetry && run.telemetry->invariants()) {
            const obs::InvariantEngine *inv =
                run.telemetry->invariants();
            if (inv->violations() == 0)
                return;
            bool misorderExpected = ex.misorder.count(leg) != 0;
            for (const obs::InvariantViolation &v : inv->records()) {
                std::string metric = ruleMetric(v.rule);
                if (misorderExpected && metric == "voltage_leads_freq")
                    continue;   // the declared hazard, detected
                found.cls = OutcomeClass::Invariant;
                found.signature = "invariant:" + metric + "@" + leg;
                found.detail = v.rule + " observed " +
                    std::to_string(v.observed) + " at t=" +
                    std::to_string(v.tick);
                return;
            }
            // Counts above the record cap with every record
            // expected: still the declared hazard.
        }
    });
    return found;
}

} // namespace

Outcome
runScenario(const Scenario &s)
{
    try {
        ExperimentConfig cfg = s.toConfig();
        cfg.validate();
        ExperimentRunner runner(cfg);
        BenchmarkResults row = runner.runBenchmark(s.benchName());
        Outcome o = classify(s, cfg, row);
        if (o.failed() || s.jobs <= 1)
            return o;

        // Determinism check: the same matrix fanned out on a pool
        // must produce byte-identical results (the repo-wide
        // jobs-independence contract).
        ThreadPool pool(static_cast<unsigned>(s.jobs));
        ExperimentRunner parallelRunner(cfg);
        BenchmarkResults row2 =
            parallelRunner.runBenchmark(s.benchName(), pool);
        if (digestRow(row) != digestRow(row2)) {
            Outcome d;
            d.cls = OutcomeClass::Divergence;
            d.signature = "divergence@jobs" + std::to_string(s.jobs);
            d.detail = "jobs=1 and jobs=" + std::to_string(s.jobs) +
                " result digests differ";
            return d;
        }
        return o;
    } catch (const std::exception &e) {
        Outcome c;
        c.cls = OutcomeClass::Crash;
        c.signature = "crash";
        c.detail = e.what();
        return c;
    }
}

Scenario
soakScenario(const SoakOptions &opts, std::uint64_t index)
{
    ConfigFuzzer fz(opts.rootSeed);
    Scenario s = fz.tuple(index);
    s.jobs = opts.jobs;
    if (!opts.planted.empty()) {
        if (opts.planted.find('=') == std::string::npos)
            fatal("soak: planted fault must be <leg>=<action> (got '" +
                  opts.planted + "')");
        s.plantedSpec = "leg:@/" + opts.planted;
    }
    return s;
}

namespace {

const char *const journalVersion = "mcd-soak-journal-v1";

std::string
journalHeader(const SoakOptions &opts)
{
    return std::string(journalVersion) +
        " seed=" + std::to_string(opts.rootSeed) +
        " jobs=" + std::to_string(opts.jobs) +
        " planted=" + opts.planted;
}

std::string
journalPath(const SoakOptions &opts)
{
    return opts.outDir + "/journal.txt";
}

/**
 * The soak's effective configuration as a one-line mcd-runspec-v1
 * fragment, written as a '#' comment right after the header when a
 * journal is created. Purely informational: the reader skips comment
 * lines, and the header alone (seed/jobs/planted, never the budget)
 * decides resume compatibility.
 */
std::string
journalRunspec(const SoakOptions &opts)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject(json::Inline)
        .field("version", config::runSpecVersion);
    w.key("options").beginObject(json::Inline)
        .field("soakBudget", std::to_string(opts.budget))
        .field("soakJobs", std::to_string(opts.jobs))
        .field("soakOut", opts.outDir)
        .field("soakPlant", opts.planted)
        .field("soakSeed", std::to_string(opts.rootSeed));
    w.endObject().endObject();
    return os.str();
}

} // namespace

SoakReport
runSoak(const SoakOptions &opts)
{
    SoakReport report;

    // Completed indices from a compatible journal. The header pins
    // everything scenario-shaping (seed, jobs, planted) but NOT the
    // budget, so a rerun with a larger budget resumes and extends.
    std::map<std::uint64_t, std::string> done;
    bool haveDir = !opts.outDir.empty();
    if (haveDir) {
        std::error_code ec;
        std::filesystem::create_directories(opts.outDir + "/corpus",
                                            ec);
        std::ifstream in(journalPath(opts));
        std::string header;
        if (in && std::getline(in, header) &&
            header == journalHeader(opts)) {
            std::string line;
            while (std::getline(in, line)) {
                if (!line.empty() && line[0] == '#')
                    continue;   // comment lines (e.g. "# runspec ...")
                std::istringstream ls(line);
                std::uint64_t idx = 0;
                std::string cls, sig;
                if (ls >> idx >> cls >> sig)
                    done[idx] = cls;
            }
        } else {
            std::ofstream out(journalPath(opts), std::ios::trunc);
            out << journalHeader(opts) << "\n"
                << "# runspec " << journalRunspec(opts) << "\n";
        }
    }

    std::ofstream journal;
    if (haveDir)
        journal.open(journalPath(opts), std::ios::app);

    for (std::uint64_t idx = 0;
         idx < static_cast<std::uint64_t>(opts.budget); ++idx) {
        auto prior = done.find(idx);
        if (prior != done.end()) {
            ++report.resumed;
            if (prior->second != "ok")
                ++report.priorFindings;
            continue;
        }

        Scenario s = soakScenario(opts, idx);
        Outcome o = runScenario(s);
        ++report.completed;

        if (opts.progress)
            std::fprintf(stderr, "  soak %llu/%d: %s%s%s\n",
                         static_cast<unsigned long long>(idx + 1),
                         opts.budget, outcomeClassName(o.cls),
                         o.failed() ? " " : "",
                         o.signature.c_str());

        SoakFinding finding;
        if (o.failed()) {
            finding.index = idx;
            finding.outcome = o;
            Scenario repro = s;
            if (opts.shrink) {
                ShrinkResult sr =
                    shrinkScenario(s, o, opts.shrinkRuns);
                repro = sr.minimized;
                finding.outcome = sr.outcome;
            }
            if (haveDir) {
                char name[64];
                std::snprintf(name, sizeof(name),
                              "repro-%llu-%llu.json",
                              static_cast<unsigned long long>(
                                  opts.rootSeed),
                              static_cast<unsigned long long>(idx));
                finding.reproPath = opts.outDir + "/corpus/" + name;
                std::ofstream rf(finding.reproPath);
                writeRepro(rf, repro, finding.outcome.signature);
            }
            report.findings.push_back(finding);
        }

        if (journal) {
            journal << idx << " " << outcomeClassName(o.cls) << " "
                    << (o.failed() ? o.signature : std::string("-"))
                    << "\n";
            journal.flush();    // survive a mid-run kill
        }
    }
    return report;
}

int
soakExitCode(const SoakReport &report)
{
    return report.clean() ? 0 : 1;
}

ReplayResult
replayRepro(const std::string &path)
{
    ReplayResult res;
    std::ifstream in(path);
    if (!in)
        return res;
    std::optional<Repro> repro = readRepro(in);
    if (!repro)
        return res;
    res.loaded = true;
    res.recorded = repro->signature;
    res.outcome = runScenario(repro->scenario);
    res.matched = res.recorded == "ok"
        ? !res.outcome.failed()
        : res.outcome.signature == res.recorded;
    return res;
}

} // namespace fuzz
} // namespace mcd
