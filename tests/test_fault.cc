/**
 * @file
 * The fault-injection subsystem and the recovery paths it exists to
 * prove: plan parsing, the pure (site, attempt) injection contract,
 * per-leg isolation with bounded retry, dependency propagation, the
 * no-progress watchdog, partial-failure exit codes, and the
 * job-count-independence of an injected matrix.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/schedule.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "config/runspec.hh"
#include "control/controller.hh"
#include "core/experiment.hh"
#include "fault/fault_plan.hh"

namespace mcd {
namespace {

namespace fs = std::filesystem;
using fault::FaultKind;
using fault::FaultPlan;
using fault::InjectedFault;

// ---------------------------------------------------------------- plan

TEST(FaultPlan, ParsesMultiItemSpec)
{
    FaultPlan plan = FaultPlan::parse(
        "leg:adpcm/dyn1=throw;cache:mst=truncate;seed=7;"
        "leg:art/online=flaky:3");
    ASSERT_EQ(plan.specs().size(), 3u);
    EXPECT_FALSE(plan.empty());
    EXPECT_EQ(plan.seed(), 7u);

    EXPECT_EQ(plan.specs()[0].site, "adpcm/dyn1");
    EXPECT_EQ(plan.specs()[0].kind, FaultKind::Throw);
    EXPECT_EQ(plan.specs()[1].site, "mst");
    EXPECT_EQ(plan.specs()[1].kind, FaultKind::TruncateCache);
    EXPECT_EQ(plan.specs()[2].site, "art/online");
    EXPECT_EQ(plan.specs()[2].kind, FaultKind::Flaky);
    EXPECT_EQ(plan.specs()[2].count, 3);
}

TEST(FaultPlan, EmptyItemsAreIgnored)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse(";;;").empty());
    EXPECT_EQ(FaultPlan::parse(";leg:a/b=stall;").specs().size(), 1u);
}

TEST(FaultPlan, MalformedSpecsAreFatal)
{
    for (const char *bad : {
             "gibberish",                // no '='
             "frob:a/b=throw",           // unknown target
             "leg:adpcm=throw",          // leg site without '/'
             "leg:a/b=explode",          // unknown leg action
             "leg:a/b=throw:2",          // count on a non-flaky action
             "leg:a/b=flaky:0",          // flaky count < 1
             "leg:a/b=flaky:x",          // flaky count not a number
             "cache:a/b=corrupt",        // cache site with '/'
             "cache:mst=frob",           // unknown cache action
             "seed=banana",              // non-numeric seed
         }) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(FaultPlan::parse(bad), FatalError);
    }
}

TEST(FaultPlan, FromConfigLayer)
{
    // MCD_FAULT_PLAN resolves through the unified config layer; an
    // unset or empty option means "no plan", anything else reaches
    // FaultPlan::parse via runMatrix's effective-config resolution.
    ::unsetenv("MCD_FAULT_PLAN");
    EXPECT_TRUE(config::RunSpec::resolve().str("faultPlan").empty());
    ::setenv("MCD_FAULT_PLAN", "", 1);
    EXPECT_TRUE(config::RunSpec::resolve().str("faultPlan").empty());
    ::setenv("MCD_FAULT_PLAN", "leg:adpcm/dyn1=throw", 1);
    std::string spec = config::RunSpec::resolve().str("faultPlan");
    EXPECT_EQ(FaultPlan::parse(spec).specs().size(), 1u);
    ::unsetenv("MCD_FAULT_PLAN");
}

TEST(FaultPlan, InjectionIsAPureFunctionOfSiteAndAttempt)
{
    FaultPlan plan = FaultPlan::parse(
        "leg:a/dyn1=throw;leg:a/dyn5=flaky:2;leg:a/online=stall");

    // Throw: every attempt, never transient.
    for (int attempt : {1, 2, 5}) {
        try {
            plan.onLegAttempt("a/dyn1", attempt);
            FAIL() << "throw site did not fire (attempt " << attempt
                   << ")";
        } catch (const InjectedFault &e) {
            EXPECT_EQ(e.site(), "a/dyn1");
            EXPECT_FALSE(e.transient());
        }
    }

    // Flaky:2 — first two attempts fail transiently, the third runs.
    for (int attempt : {1, 2}) {
        try {
            plan.onLegAttempt("a/dyn5", attempt);
            FAIL() << "flaky site did not fire (attempt " << attempt
                   << ")";
        } catch (const InjectedFault &e) {
            EXPECT_TRUE(e.transient());
        }
    }
    EXPECT_NO_THROW(plan.onLegAttempt("a/dyn5", 3));

    // Stall sites never throw at the guard: they starve the watchdog.
    EXPECT_NO_THROW(plan.onLegAttempt("a/online", 1));
    EXPECT_TRUE(plan.stallsLeg("a/online"));
    EXPECT_FALSE(plan.stallsLeg("a/dyn1"));
    EXPECT_FALSE(plan.stallsLeg(""));

    // Unarmed sites are inert.
    EXPECT_NO_THROW(plan.onLegAttempt("b/dyn1", 1));
    EXPECT_TRUE(plan.legFaultsFor("a"));
    EXPECT_FALSE(plan.legFaultsFor("b"));
    EXPECT_FALSE(plan.cacheFault("a").has_value());
}

TEST(FaultPlan, DamageFile)
{
    fs::path p = fs::temp_directory_path() / "mcd-fault-damage.txt";
    const std::string original = "0123456789abcdef0123456789abcdef";
    {
        std::ofstream os(p, std::ios::binary);
        os << original;
    }

    ASSERT_TRUE(fault::damageFile(p.string(),
                                  FaultKind::TruncateCache));
    EXPECT_EQ(fs::file_size(p), original.size() / 2);

    {
        std::ofstream os(p, std::ios::binary | std::ios::trunc);
        os << original;
    }
    ASSERT_TRUE(fault::damageFile(p.string(), FaultKind::CorruptCache));
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str().size(), original.size());    // same size...
    EXPECT_NE(buf.str(), original);                  // ...new bytes

    fs::remove(p);
    EXPECT_FALSE(fault::damageFile(p.string(), FaultKind::CorruptCache));
}

// ---------------------------------------------------- spec emission

TEST(FaultPlan, ToSpecRoundTripsHandWrittenPlans)
{
    for (const char *spec : {
             "leg:adpcm/dyn1=throw",
             "leg:a/b=flaky:3;cache:mst=truncate",
             "leg:a/b=stall;leg:a/c=vfmisorder;seed=9",
             "cache:art=corrupt",
         }) {
        FaultPlan plan = FaultPlan::parse(spec);
        EXPECT_EQ(plan.toSpec(), spec);
    }
    // Canonicalization: empty items vanish, flaky:1 drops its count,
    // the default seed is omitted.
    EXPECT_EQ(FaultPlan::parse(";leg:a/b=flaky:1;;seed=1;").toSpec(),
              "leg:a/b=flaky");
}

/** Random valid plan built directly from the spec grammar. */
std::string
randomFaultSpec(Rng &rng)
{
    static const char *const legActions[] = {
        "throw", "flaky", "flaky:2", "flaky:5", "stall", "vfmisorder",
    };
    static const char *const cacheActions[] = {"truncate", "corrupt"};
    std::string spec;
    int items = 1 + rng.uniformInt(4);
    for (int i = 0; i < items; ++i) {
        if (!spec.empty())
            spec += ";";
        // Distinct sites per item keep the plan order-preserving.
        std::string tag = std::to_string(i);
        if (rng.uniform() < 0.7)
            spec += "leg:b" + tag + "/l" + tag + "=" +
                legActions[rng.uniformInt(6)];
        else
            spec += "cache:b" + tag + "=" +
                cacheActions[rng.uniformInt(2)];
    }
    if (rng.uniform() < 0.4)
        spec += ";seed=" + std::to_string(2 + rng.uniformInt(1000));
    return spec;
}

TEST(FaultPlan, ToSpecRoundTripsRandomizedPlans)
{
    Rng rng(2024);
    for (int trial = 0; trial < 200; ++trial) {
        std::string spec = randomFaultSpec(rng);
        FaultPlan plan = FaultPlan::parse(spec);
        std::string emitted = plan.toSpec();
        // The emitted spec parses back to a structurally identical
        // plan, and re-emitting it is a fixed point (canonical form).
        FaultPlan reparsed = FaultPlan::parse(emitted);
        EXPECT_EQ(reparsed.toSpec(), emitted) << spec;
        ASSERT_EQ(reparsed.specs().size(), plan.specs().size()) << spec;
        EXPECT_EQ(reparsed.seed(), plan.seed()) << spec;
        for (std::size_t i = 0; i < plan.specs().size(); ++i) {
            EXPECT_EQ(reparsed.specs()[i].site, plan.specs()[i].site);
            EXPECT_EQ(reparsed.specs()[i].kind, plan.specs()[i].kind);
            EXPECT_EQ(reparsed.specs()[i].count,
                      plan.specs()[i].count);
        }
    }
}

// ------------------------------------------------------ config checks

TEST(ExperimentConfigValidate, RejectsOutOfRangeParameters)
{
    ExperimentConfig ok;
    EXPECT_NO_THROW(ok.validate());

    ExperimentConfig ec = ok;
    ec.scale = 0;
    EXPECT_THROW(ec.validate(), FatalError);

    ec = ok;
    ec.legAttempts = 0;
    EXPECT_THROW(ec.validate(), FatalError);

    ec = ok;
    ec.dilationLow = 0.0;
    EXPECT_THROW(ec.validate(), FatalError);

    ec = ok;
    ec.dilationLow = 0.10;      // above dilationHigh = 0.05
    EXPECT_THROW(ec.validate(), FatalError);

    ec = ok;
    ec.dvfsTimeScale = -1.0;
    EXPECT_THROW(ec.validate(), FatalError);

    ec = ok;
    ec.online.interval = 0;
    EXPECT_THROW(ec.validate(), FatalError);
}

TEST(SimConfigValidate, RejectsInconsistentConfigurations)
{
    SimConfig ok;
    EXPECT_NO_THROW(ok.validate());

    SimConfig sc = ok;
    sc.domainFrequency[0] = 0.0;
    EXPECT_THROW(sc.validate(), FatalError);

    // In-range without a DVFS engine, out of the table's range with
    // one: the first transition would be undefined.
    sc = ok;
    sc.domainFrequency[1] = 2e9;
    EXPECT_NO_THROW(sc.validate());
    sc.dvfs = DvfsKind::XScale;
    EXPECT_THROW(sc.validate(), FatalError);

    sc = ok;
    sc.syncFraction = 1.5;
    EXPECT_THROW(sc.validate(), FatalError);

    // Control-plane exclusivity: schedule XOR controller.
    ReconfigSchedule sched;
    sched.add(1000, Domain::Integer, 500e6);
    sched.finalize();
    StaticController ctl({1e9, 1e9, 1e9, 1e9});
    sc = ok;
    sc.dvfs = DvfsKind::XScale;
    sc.schedule = &sched;
    EXPECT_NO_THROW(sc.validate());
    sc.controller = &ctl;
    EXPECT_THROW(sc.validate(), FatalError);

    // A non-empty schedule with no DVFS model cannot execute.
    sc = ok;
    sc.schedule = &sched;
    EXPECT_THROW(sc.validate(), FatalError);

    // Unsorted schedules point at the missing finalize() call.
    ReconfigSchedule unsorted;
    unsorted.add(2000, Domain::Integer, 500e6);
    unsorted.add(1000, Domain::Integer, 750e6);
    sc = ok;
    sc.dvfs = DvfsKind::XScale;
    sc.schedule = &unsorted;
    EXPECT_THROW(sc.validate(), FatalError);

    // Schedule frequencies outside the operating-point table.
    ReconfigSchedule tooFast;
    tooFast.add(1000, Domain::Integer, 5e9);
    tooFast.finalize();
    sc = ok;
    sc.dvfs = DvfsKind::XScale;
    sc.schedule = &tooFast;
    EXPECT_THROW(sc.validate(), FatalError);
}

TEST(SimConfigValidate, CollectsEveryViolationInOneReport)
{
    // A multiply broken configuration — the shape fuzzed scenarios
    // produce — must surface the complete defect list, not just the
    // first hit.
    SimConfig sc;
    sc.domainFrequency[0] = 0.0;        // violation 1
    sc.syncFraction = 1.5;              // violation 2
    sc.jitterSigmaPs = -1.0;            // violation 3
    sc.dvfsTimeScale = 0.0;             // violation 4

    std::vector<std::string> errs = sc.validateAll();
    ASSERT_EQ(errs.size(), 4u);

    // And validate() folds the whole list into one fatal message.
    try {
        sc.validate();
        FAIL() << "validate() must throw";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("4 invalid settings"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("domainFrequency[0]"), std::string::npos);
        EXPECT_NE(msg.find("syncFraction"), std::string::npos);
        EXPECT_NE(msg.find("jitterSigmaPs"), std::string::npos);
        EXPECT_NE(msg.find("dvfsTimeScale"), std::string::npos);
    }

    // A single violation keeps the original one-line message shape.
    SimConfig one;
    one.syncFraction = -0.5;
    EXPECT_EQ(one.validateAll().size(), 1u);
    try {
        one.validate();
        FAIL() << "validate() must throw";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()).find("invalid settings"),
                  std::string::npos);
    }
}

TEST(ExperimentConfigValidate, CollectsEveryViolationInOneReport)
{
    ExperimentConfig ec;
    ec.scale = 0;                       // violation 1
    ec.legAttempts = 0;                 // violation 2
    ec.dilationLow = -0.1;              // violation 3

    std::vector<std::string> errs = ec.validateAll();
    ASSERT_GE(errs.size(), 3u);
    try {
        ec.validate();
        FAIL() << "validate() must throw";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("invalid settings"), std::string::npos);
        EXPECT_NE(msg.find("scale"), std::string::npos);
    }
}

// ------------------------------------------------------- exit codes

RunResult
failedRun(const char *site, const char *kind)
{
    RunResult r;
    r.error = RunError{site, kind, "synthetic", 1};
    return r;
}

TEST(MatrixExitCode, DistinguishesPartialFromTotalFailure)
{
    EXPECT_EQ(matrixExitCode({}), exitOk);

    std::vector<BenchmarkResults> rows(2);
    for (BenchmarkResults &r : rows) {
        for (const LegSpec &spec : defaultLegs(ExperimentConfig{}))
            r.legs.push_back({spec, RunResult{}, 0});
    }
    EXPECT_EQ(matrixExitCode(rows), exitOk);

    rows[0].legs[0].run = failedRun("a/dyn1", "injected");
    EXPECT_EQ(rows[0].failedLegs(), 1u);
    EXPECT_TRUE(rows[0].anyFailed());
    EXPECT_EQ(matrixExitCode(rows), exitPartialFailure);

    for (BenchmarkResults &r : rows) {
        r.baseline = failedRun("x", "fatal");
        r.mcdBaseline = failedRun("x", "fatal");
        for (ControllerLeg &l : r.legs)
            l.run = failedRun("x", "fatal");
    }
    EXPECT_EQ(rows[0].failedLegs(), 6u);
    EXPECT_EQ(matrixExitCode(rows), exitTotalFailure);
}

// ----------------------------------------------------- matrix guards

std::string
resultsJson(const ExperimentConfig &cfg,
            const std::vector<BenchmarkResults> &rows)
{
    std::ostringstream os;
    writeResultsJson(os, cfg, rows);
    return os.str();
}

void
expectRunsIdentical(const RunResult &a, const RunResult &b,
                    const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.energyDelay, b.energyDelay);
}

TEST(FaultMatrix, InjectedLegFailureIsIsolatedAndJobCountIndependent)
{
    const std::vector<std::string> names{"adpcm", "mst"};
    ExperimentConfig ec;
    ec.faults = std::make_shared<const FaultPlan>(
        FaultPlan::parse("leg:adpcm/dyn1=throw"));

    auto serial = runMatrix(ec, names, /*jobs=*/1);
    ASSERT_EQ(serial.size(), 2u);

    // The armed leg failed with a structured record...
    const RunResult &dead = serial[0].leg("dyn1");
    ASSERT_TRUE(dead.failed());
    EXPECT_EQ(dead.error->kind, "injected");
    EXPECT_EQ(dead.error->site, "adpcm/dyn1");
    EXPECT_EQ(dead.error->attempts, 1);     // permanent: no retry
    EXPECT_EQ(dead.execTime, 0u);           // numerics stay default

    // ...every other leg of both benchmarks still completed.
    EXPECT_EQ(serial[0].failedLegs(), 1u);
    EXPECT_EQ(serial[1].failedLegs(), 0u);
    EXPECT_GT(serial[0].baseline.committed, 0u);
    EXPECT_GT(serial[0].leg("global").committed, 0u);
    EXPECT_GT(serial[1].leg("dyn1").committed, 0u);
    EXPECT_EQ(matrixExitCode(serial), exitPartialFailure);

    // The failure surfaces in the results JSON.
    std::string json = resultsJson(ec, serial);
    EXPECT_NE(json.find("\"failures\": ["), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"injected\""), std::string::npos);
    EXPECT_NE(json.find("\"exitCode\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"failed\": true"), std::string::npos);

    // Injection is deterministic under parallel execution: the whole
    // document is byte-identical for any job count.
    auto par = runMatrix(ec, names, /*jobs=*/8);
    EXPECT_EQ(json, resultsJson(ec, par));
}

TEST(FaultMatrix, TransientFaultIsRetriedAndRecovers)
{
    const std::vector<std::string> names{"adpcm"};

    ExperimentConfig clean;
    auto cleanRows = runMatrix(clean, names, 1);
    ASSERT_EQ(cleanRows[0].failedLegs(), 0u);

    // A clean matrix keeps the pre-fault-framework document: no
    // failure surface at all.
    std::string cleanJson = resultsJson(clean, cleanRows);
    EXPECT_EQ(cleanJson.find("\"failures\""), std::string::npos);
    EXPECT_EQ(cleanJson.find("\"exitCode\""), std::string::npos);
    EXPECT_EQ(cleanJson.find("\"attempts\""), std::string::npos);

    ExperimentConfig ec;
    ec.legAttempts = 2;
    ec.faults = std::make_shared<const FaultPlan>(
        FaultPlan::parse("leg:adpcm/dyn5=flaky"));
    auto rows = runMatrix(ec, names, 1);

    // The flaky leg recovered on the second attempt, and the retry
    // reproduced the clean run bit for bit.
    EXPECT_EQ(rows[0].failedLegs(), 0u);
    EXPECT_EQ(rows[0].leg("dyn5").attempts, 2);
    expectRunsIdentical(rows[0].leg("dyn5"), cleanRows[0].leg("dyn5"),
                        "dyn5");
    expectRunsIdentical(rows[0].baseline, cleanRows[0].baseline,
                        "baseline");
    EXPECT_EQ(matrixExitCode(rows), exitOk);

    // With retries exhausted the same plan records the failure.
    ExperimentConfig once = ec;
    once.legAttempts = 1;
    auto failedRows = runMatrix(once, names, 1);
    ASSERT_TRUE(failedRows[0].leg("dyn5").failed());
    EXPECT_EQ(failedRows[0].leg("dyn5").error->kind, "injected");
}

TEST(FaultMatrix, StallTripsTheWatchdog)
{
    ExperimentConfig ec;
    ec.faults = std::make_shared<const FaultPlan>(
        FaultPlan::parse("leg:adpcm/online=stall"));
    ec.watchdogNoProgressEdges = 50'000;    // trip fast
    auto rows = runMatrix(ec, {"adpcm"}, 1);

    const RunResult &stalled = rows[0].leg("online");
    ASSERT_TRUE(stalled.failed());
    EXPECT_EQ(stalled.error->kind, "watchdog");
    EXPECT_NE(stalled.error->message.find("no commit progress"),
              std::string::npos);
    EXPECT_NE(stalled.error->message.find("injected stall"),
              std::string::npos);
    EXPECT_EQ(rows[0].failedLegs(), 1u);
    EXPECT_GT(rows[0].leg("dyn5").committed, 0u);  // siblings unaffected
}

TEST(FaultMatrix, ProfilingFailurePropagatesAsDependencyErrors)
{
    ExperimentConfig ec;
    ec.faults = std::make_shared<const FaultPlan>(
        FaultPlan::parse("leg:adpcm/mcdBaseline=throw"));
    auto rows = runMatrix(ec, {"adpcm"}, 1);

    ASSERT_TRUE(rows[0].mcdBaseline.failed());
    EXPECT_EQ(rows[0].mcdBaseline.error->kind, "injected");

    // dyn1/dyn5 need the profiling trace; global needs dyn5. None of
    // them were attempted, and each names its upstream.
    for (const char *leg : {"dyn1", "dyn5", "global"}) {
        const RunResult &r = rows[0].leg(leg);
        ASSERT_TRUE(r.failed());
        EXPECT_EQ(r.error->kind, "dependency");
        EXPECT_EQ(r.attempts, 0);
    }
    EXPECT_NE(rows[0].leg("dyn1").error->message.find("mcdBaseline"),
              std::string::npos);

    // Independent legs still ran.
    EXPECT_FALSE(rows[0].baseline.failed());
    EXPECT_FALSE(rows[0].leg("online").failed());
    EXPECT_EQ(rows[0].failedLegs(), 4u);
    EXPECT_EQ(matrixExitCode(rows), exitPartialFailure);
}

TEST(FaultMatrix, ShakeFailurePropagatesAsDependencyErrors)
{
    // The offline tool's shake runs once per benchmark under a leg
    // guard of its own, at site <bench>/shake.
    ExperimentConfig ec;
    ec.faults = std::make_shared<const FaultPlan>(
        FaultPlan::parse("leg:adpcm/shake=throw"));
    std::vector<BenchmarkResults> rows;
    ASSERT_NO_THROW(rows = runMatrix(ec, {"adpcm", "mst"}, 1));

    // Every schedule-replay leg, and the global leg that references
    // one, names the shake as its upstream; none was attempted.
    for (const char *leg : {"dyn1", "dyn5", "global"}) {
        SCOPED_TRACE(leg);
        const RunResult &r = rows[0].leg(leg);
        ASSERT_TRUE(r.failed());
        EXPECT_EQ(r.error->kind, "dependency");
        EXPECT_EQ(r.error->site, std::string("adpcm/") + leg);
        EXPECT_EQ(r.error->message, "shake leg failed");
        EXPECT_EQ(r.attempts, 0);
    }

    // The baselines and the controller leg are intact, bit for bit.
    ExperimentConfig clean;
    auto cleanRows = runMatrix(clean, {"adpcm"}, 1);
    expectRunsIdentical(rows[0].baseline, cleanRows[0].baseline,
                        "baseline");
    expectRunsIdentical(rows[0].mcdBaseline, cleanRows[0].mcdBaseline,
                        "mcdBaseline");
    expectRunsIdentical(rows[0].leg("online"), cleanRows[0].leg("online"),
                        "online");
    EXPECT_EQ(rows[0].failedLegs(), 3u);

    // The other benchmark's shake was untouched.
    EXPECT_EQ(rows[1].failedLegs(), 0u);
    EXPECT_EQ(matrixExitCode(rows), exitPartialFailure);
}

TEST(FaultMatrix, FailedRowsAreNeverCached)
{
    fs::path dir = fs::temp_directory_path() / "mcd-fault-nocache";
    fs::remove_all(dir);

    ExperimentConfig ec;
    ec.cacheDir = dir.string();
    ec.faults = std::make_shared<const FaultPlan>(
        FaultPlan::parse("leg:adpcm/dyn1=throw"));
    ExperimentRunner runner(ec);
    BenchmarkResults r = runner.runBenchmark("adpcm");
    ASSERT_TRUE(r.anyFailed());
    EXPECT_FALSE(fs::exists(runner.cachePath("adpcm")));

    fs::remove_all(dir);
}

} // namespace
} // namespace mcd
