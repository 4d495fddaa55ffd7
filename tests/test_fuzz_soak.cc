/**
 * @file
 * The soak harness end to end: deterministic tuple sampling,
 * outcome classification against declared vs planted faults, the
 * jobs=1-vs-N divergence check, repro-file round-trips, journal
 * resume after interruption, and the signature-preserving shrinker
 * (exercised with a stub oracle so minimization logic is tested
 * without paying for real simulator runs).
 */

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "fuzz/config_fuzzer.hh"
#include "fuzz/scenario.hh"
#include "fuzz/shrink.hh"
#include "fuzz/soak.hh"

namespace mcd {
namespace {

namespace fs = std::filesystem;
using fuzz::ConfigFuzzer;
using fuzz::GenParams;
using fuzz::Outcome;
using fuzz::OutcomeClass;
using fuzz::Scenario;
using fuzz::ShrinkResult;
using fuzz::SoakOptions;
using fuzz::SoakReport;

/**
 * A small, fast scenario with one replay leg. The phase mix is
 * chosen so the dyn5 schedule contains frequency *rises* — the only
 * transitions a planted vfmisorder can reorder — by leading with a
 * low-ILP branchy phase and ending in a dependence-heavy one.
 */
Scenario
smallScenario()
{
    Scenario s;
    s.workload = GenParams::fromSpec(
        "seed=9235374536318864070;phase=branch:3327:1:16:2:41;"
        "phase=int:4270:4:2048:3:6");
    s.options = {{"model", "XScale"},       {"dvfsTimeScale", "0.05"},
                 {"dilationLow", "0.01"},   {"dilationHigh", "0.03"},
                 {"seed", "7"},             {"watchdogEdges", "1000000"}};
    s.legsSpec = "dyn5=replay:0.03";
    return s;
}

struct TempDir
{
    fs::path path;
    TempDir()
        : path(fs::temp_directory_path() /
               ("mcd-soak-test-" + std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

// ------------------------------------------------------- determinism

TEST(FuzzSoak, TupleSamplingIsDeterministic)
{
    ConfigFuzzer fz(99);
    for (std::uint64_t i = 0; i < 8; ++i) {
        Scenario a = fz.tuple(i);
        Scenario b = fz.tuple(i);
        EXPECT_EQ(a.workload.spec(), b.workload.spec());
        EXPECT_EQ(a.options, b.options);
        EXPECT_EQ(a.legsSpec, b.legsSpec);
        EXPECT_EQ(a.faultSpec, b.faultSpec);
    }
}

TEST(FuzzSoak, TuplesAlternateDvfsModels)
{
    // The acceptance criterion asks for coverage of both DVFS models
    // at any budget >= 2, so the model axis cycles instead of being
    // sampled.
    ConfigFuzzer fz(3);
    EXPECT_EQ(fz.tuple(0).options.at("model"), "XScale");
    EXPECT_EQ(fz.tuple(1).options.at("model"), "Transmeta");
}

TEST(FuzzSoak, SampledTuplesAreValidByConstruction)
{
    ConfigFuzzer fz(17);
    for (std::uint64_t i = 0; i < 12; ++i) {
        Scenario s = fz.tuple(i);
        EXPECT_TRUE(s.toConfig().validateAll().empty()) << "tuple " << i;
    }
}

// ---------------------------------------------------- classification

TEST(FuzzSoak, CleanScenarioClassifiesOk)
{
    Outcome o = fuzz::runScenario(smallScenario());
    EXPECT_EQ(o.cls, OutcomeClass::Ok) << o.signature << " "
                                       << o.detail;
    EXPECT_TRUE(o.signature.empty());
}

TEST(FuzzSoak, DeclaredFaultClassifiesOkPlantedFaultDoesNot)
{
    // Declared: the classifier predicts the injected failure and
    // treats the run as a successful recovery-path exercise.
    Scenario declared = smallScenario();
    declared.faultSpec = "leg:@/dyn5=throw";
    Outcome od = fuzz::runScenario(declared);
    EXPECT_EQ(od.cls, OutcomeClass::Ok) << od.signature;

    // Planted: same fault through the canary channel must surface.
    Scenario planted = smallScenario();
    planted.plantedSpec = "leg:@/dyn5=throw";
    Outcome op = fuzz::runScenario(planted);
    EXPECT_EQ(op.cls, OutcomeClass::LegFail);
    EXPECT_EQ(op.signature, "legfail:injected@dyn5");
}

TEST(FuzzSoak, PlantedMisorderSurfacesAsInvariantFinding)
{
    Scenario s = smallScenario();
    s.plantedSpec = "leg:@/dyn5=vfmisorder";
    Outcome o = fuzz::runScenario(s);
    EXPECT_EQ(o.cls, OutcomeClass::Invariant) << o.detail;
    EXPECT_EQ(o.signature, "invariant:voltage_leads_freq@dyn5");

    // The identical hazard, declared: expected, hence ok.
    Scenario d = smallScenario();
    d.faultSpec = "leg:@/dyn5=vfmisorder";
    Outcome od = fuzz::runScenario(d);
    EXPECT_EQ(od.cls, OutcomeClass::Ok) << od.signature;
}

TEST(FuzzSoak, JobsIndependenceHoldsOnACleanScenario)
{
    // jobs > 1 arms the divergence re-run: the serial and pooled
    // matrices must digest byte-identically or the outcome flips to
    // Divergence. A pass here is the jobs=1-vs-8 identity check.
    Scenario s = smallScenario();
    s.jobs = 8;
    Outcome o = fuzz::runScenario(s);
    EXPECT_EQ(o.cls, OutcomeClass::Ok) << o.signature << " "
                                       << o.detail;
}

// ------------------------------------------------------------ repros

TEST(FuzzSoak, ReproRoundTripsThroughJson)
{
    Scenario s = smallScenario();
    s.faultSpec = "leg:@/dyn5=flaky:1";
    s.plantedSpec = "leg:@/dyn5=vfmisorder";
    s.jobs = 4;

    std::stringstream buf;
    fuzz::writeRepro(buf, s, "invariant:voltage_leads_freq@dyn5");
    std::optional<fuzz::Repro> r = fuzz::readRepro(buf);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->signature, "invariant:voltage_leads_freq@dyn5");
    EXPECT_EQ(r->scenario.workload.spec(), s.workload.spec());
    EXPECT_EQ(r->scenario.options, s.options);
    EXPECT_EQ(r->scenario.legsSpec, s.legsSpec);
    EXPECT_EQ(r->scenario.faultSpec, s.faultSpec);
    EXPECT_EQ(r->scenario.plantedSpec, s.plantedSpec);
    EXPECT_EQ(r->scenario.jobs, 4);
}

TEST(FuzzSoak, ReproRejectsWrongVersionAndGarbage)
{
    std::stringstream wrong(
        "{ \"version\": \"mcd-repro-v0\", \"signature\": \"x\" }");
    EXPECT_FALSE(fuzz::readRepro(wrong).has_value());
    std::stringstream garbage("not json at all");
    EXPECT_FALSE(fuzz::readRepro(garbage).has_value());
}

TEST(FuzzSoak, FaultPlaceholderTracksTheWorkloadName)
{
    // "@" expansion is what keeps fault sites attached to legs while
    // the shrinker mutates the workload (and hence its hashed name).
    Scenario s = smallScenario();
    s.faultSpec = "leg:@/dyn5=throw";
    std::string bench = s.benchName();
    EXPECT_EQ(s.expandedFaults(), "leg:" + bench + "/dyn5=throw");

    s.workload.phases.pop_back();
    EXPECT_NE(s.benchName(), bench);
    EXPECT_EQ(s.expandedFaults(),
              "leg:" + s.benchName() + "/dyn5=throw");
}

// ---------------------------------------------------------- shrinker

/**
 * Stub oracle: "fails" with a fixed invariant signature whenever the
 * leg set still contains dyn5, regardless of everything else. The
 * minimal signature-preserving scenario is therefore one leg, one
 * phase, minimal numeric dimensions.
 */
Outcome
stubOracle(const Scenario &s)
{
    Outcome o;
    if (s.legsSpec.find("dyn5") != std::string::npos) {
        o.cls = OutcomeClass::Invariant;
        o.signature = "invariant:voltage_leads_freq@dyn5";
    }
    return o;
}

TEST(FuzzSoak, ShrinkerMinimizesWhilePreservingTheSignature)
{
    Scenario fat = smallScenario();
    fat.legsSpec = "dyn5=replay:0.05|dyn1=replay:0.01|"
        "online=ctrl:online-queue";
    fat.faultSpec = "leg:@/dyn1=throw";
    fat.options["sampling"] = "detailed=1000,ff=4000,warmup=250";

    Outcome baseline = stubOracle(fat);
    ASSERT_TRUE(baseline.failed());

    ShrinkResult r =
        fuzz::shrinkScenario(fat, baseline, 200, stubOracle);
    EXPECT_GT(r.reductions, 0);
    EXPECT_LE(r.runs, 200);
    EXPECT_EQ(r.outcome.signature, baseline.signature);

    // Everything droppable under this oracle is gone.
    EXPECT_EQ(r.minimized.legsSpec, "dyn5=replay:0.05");
    EXPECT_TRUE(r.minimized.faultSpec.empty());
    EXPECT_EQ(r.minimized.options.count("sampling"), 0u);
    EXPECT_EQ(r.minimized.workload.phases.size(), 1u);

    // The minimized scenario is still valid by construction.
    EXPECT_TRUE(r.minimized.toConfig().validateAll().empty());
}

TEST(FuzzSoak, ShrinkerReturnsTheOriginalWhenNothingShrinks)
{
    Scenario s = smallScenario();
    s.workload.phases.resize(1);
    Outcome baseline = stubOracle(s);

    // An oracle that only accepts this exact leg+phase shape: every
    // candidate changes the signature, so no reduction is possible.
    auto strict = [&](const Scenario &c) {
        Outcome o;
        if (c.legsSpec == s.legsSpec &&
            c.workload.spec() == s.workload.spec()) {
            o.cls = OutcomeClass::Invariant;
            o.signature = baseline.signature;
        }
        return o;
    };
    ShrinkResult r = fuzz::shrinkScenario(s, baseline, 50, strict);
    EXPECT_EQ(r.reductions, 0);
    EXPECT_EQ(r.minimized.workload.spec(), s.workload.spec());
    EXPECT_EQ(r.minimized.legsSpec, s.legsSpec);
}

// ------------------------------------------------------ soak + journal

TEST(FuzzSoak, JournalResumesAndExtends)
{
    TempDir tmp;
    SoakOptions opts;
    opts.rootSeed = 5;
    opts.budget = 2;
    opts.outDir = tmp.path.string();

    SoakReport first = fuzz::runSoak(opts);
    EXPECT_EQ(first.completed, 2u);
    EXPECT_EQ(first.resumed, 0u);

    // Re-running with a larger budget must skip the finished tuples
    // (the journal header pins seed/jobs/planted but not budget).
    opts.budget = 3;
    SoakReport second = fuzz::runSoak(opts);
    EXPECT_EQ(second.resumed, 2u);
    EXPECT_EQ(second.completed, 1u);

    // A truncated journal tail — the shape a mid-run kill leaves —
    // resumes past what was flushed and re-runs the rest.
    {
        std::ifstream in(tmp.path / "journal.txt");
        std::string header, line1, line;
        ASSERT_TRUE(std::getline(in, header));
        // Skip annotation comments (the "# runspec" line) to find the
        // first completed-tuple entry, but keep them in the rewrite:
        // a real mid-run kill never removes them.
        std::string comments;
        while (std::getline(in, line)) {
            if (!line.empty() && line[0] == '#') {
                comments += line + "\n";
                continue;
            }
            line1 = line;
            break;
        }
        ASSERT_FALSE(line1.empty());
        in.close();
        std::ofstream out(tmp.path / "journal.txt", std::ios::trunc);
        out << header << "\n" << comments << line1 << "\n";
    }
    SoakReport third = fuzz::runSoak(opts);
    EXPECT_EQ(third.resumed, 1u);
    EXPECT_EQ(third.completed, 2u);
}

TEST(FuzzSoak, IncompatibleJournalHeaderStartsFresh)
{
    TempDir tmp;
    SoakOptions opts;
    opts.rootSeed = 5;
    opts.budget = 1;
    opts.outDir = tmp.path.string();
    SoakReport first = fuzz::runSoak(opts);
    EXPECT_EQ(first.completed, 1u);

    // A different root seed samples different tuples; resuming from
    // the old journal would silently skip unrun work.
    opts.rootSeed = 6;
    SoakReport second = fuzz::runSoak(opts);
    EXPECT_EQ(second.resumed, 0u);
    EXPECT_EQ(second.completed, 1u);
}

TEST(FuzzSoak, PlantedSoakRecordsFindingAndReplayableRepro)
{
    TempDir tmp;
    SoakOptions opts;
    opts.rootSeed = 3;
    opts.budget = 1;
    opts.outDir = tmp.path.string();
    opts.planted = "dyn5=vfmisorder";
    opts.shrinkRuns = 4;        // a few reduction steps, kept cheap

    SoakReport report = fuzz::runSoak(opts);
    EXPECT_EQ(fuzz::soakExitCode(report), 1);
    ASSERT_EQ(report.findings.size(), 1u);
    const fuzz::SoakFinding &f = report.findings[0];
    EXPECT_EQ(f.outcome.signature,
              "invariant:voltage_leads_freq@dyn5");
    ASSERT_FALSE(f.reproPath.empty());

    // The persisted repro replays to the identical signature.
    fuzz::ReplayResult r = fuzz::replayRepro(f.reproPath);
    EXPECT_TRUE(r.loaded);
    EXPECT_TRUE(r.matched) << "recorded " << r.recorded
                           << " replayed " << r.outcome.signature;

    // Findings stay sticky across a resume: the journal remembers.
    SoakReport again = fuzz::runSoak(opts);
    EXPECT_EQ(again.completed, 0u);
    EXPECT_EQ(again.priorFindings, 1u);
    EXPECT_EQ(fuzz::soakExitCode(again), 1);
}

} // namespace
} // namespace mcd
