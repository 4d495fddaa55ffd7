/**
 * @file
 * Tests for the experiment runner (profiling -> analysis -> dynamic
 * run pipeline, the global-frequency search, and the results cache).
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "core/experiment.hh"
#include "core/processor.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

/**
 * The expcache record of @p r's two reference runs plus the leg named
 * @p leg (reference runs only when @p leg is empty): every serialized
 * field, compared as bytes.
 */
std::string
cacheRecord(const BenchmarkResults &r, std::string_view leg = {})
{
    BenchmarkResults only;
    only.name = r.name;
    only.baseline = r.baseline;
    only.mcdBaseline = r.mcdBaseline;
    if (!leg.empty()) {
        const ControllerLeg *l = r.findLeg(leg);
        EXPECT_NE(l, nullptr) << leg;
        if (l)
            only.legs = {*l};
    }
    std::ostringstream os;
    expcache::write(os, only);
    return os.str();
}

TEST(Experiment, ReplayLegProducesScheduleAndResult)
{
    ExperimentConfig ec;
    ec.legs = {LegSpec::scheduleReplay("dyn5", 0.05)};
    BenchmarkResults r = ExperimentRunner(ec).runBenchmark("epic");
    ASSERT_FALSE(r.anyFailed());
    const RunResult &dyn = r.leg("dyn5");
    EXPECT_GT(dyn.committed, 100'000u);
    // At least the FP domain must have been scaled for this integer
    // filter kernel.
    EXPECT_LT(dyn.domains[domainIndex(Domain::FloatingPoint)]
                  .avgFrequency, 900e6);

    // The offline tool run by hand on the same profiling trace picks
    // the schedule the leg replayed.
    SimConfig prof;
    prof.clocking = ClockingStyle::Mcd;
    prof.seed = ec.seed;
    prof.collectTrace = true;
    McdProcessor proc(prof, workloads::build("epic", ec.scale));
    proc.run();
    AnalysisResult analysis = OfflineAnalyzer(OfflineAnalyzer::configFor(
        0.05, ec.model, ec.dvfsTimeScale)).analyze(proc.trace().trace());
    EXPECT_GT(analysis.intervals, 0u);
    EXPECT_GT(analysis.eventsTotal, 50'000u);
    EXPECT_EQ(r.scheduleSize("dyn5"), analysis.schedule.size());
}

TEST(Experiment, AnalysisPlansRespectDilationDirection)
{
    // A tighter dilation target must choose frequencies that are
    // greater than or equal to a looser one, domain by domain. Both
    // legs cluster from the one shared profile and shake.
    ExperimentConfig ec;
    ec.legs = {LegSpec::scheduleReplay("tight", 0.01),
               LegSpec::scheduleReplay("loose", 0.10)};
    BenchmarkResults r = ExperimentRunner(ec).runBenchmark("gcc");
    ASSERT_FALSE(r.anyFailed());
    for (Domain d : scalableDomains) {
        int di = domainIndex(d);
        EXPECT_GE(r.leg("tight").domains[di].avgFrequency + 1e6,
                  r.leg("loose").domains[di].avgFrequency);
    }
}

TEST(Experiment, LegSubsetsMatchTheFullMatrix)
{
    // Running a leg alone must give the same leg as running it inside
    // the paper's matrix: the figure drivers and examples that ask for
    // one or two legs rest on this.
    for (const char *bench : {"adpcm", "mcf"}) {
        SCOPED_TRACE(bench);
        BenchmarkResults full =
            ExperimentRunner(ExperimentConfig{}).runBenchmark(bench);
        ASSERT_FALSE(full.anyFailed());
        for (const char *leg : {"dyn5", "online"}) {
            SCOPED_TRACE(leg);
            ExperimentConfig ec;
            ec.legs = {full.findLeg(leg)->spec};
            BenchmarkResults sub = ExperimentRunner(ec).runBenchmark(bench);
            ASSERT_FALSE(sub.anyFailed());
            EXPECT_EQ(cacheRecord(sub, leg), cacheRecord(full, leg));
        }
    }
}

TEST(Experiment, FullMatrixShapes)
{
    ExperimentConfig ec;
    ExperimentRunner runner(ec);
    BenchmarkResults r = runner.runBenchmark("gcc");

    // The MCD clocking style costs a little performance.
    EXPECT_GT(r.perfDegradation(r.mcdBaseline), -0.005);
    EXPECT_LT(r.perfDegradation(r.mcdBaseline), 0.06);

    // The dynamic configurations save energy; deeper target -> more.
    EXPECT_GT(r.energySavings(r.leg("dyn1")), 0.0);
    EXPECT_GT(r.energySavings(r.leg("dyn5")),
              r.energySavings(r.leg("dyn1")));
    EXPECT_GT(r.perfDegradation(r.leg("dyn5")),
              r.perfDegradation(r.leg("dyn1")));

    // Global was matched to dynamic-5% degradation.
    EXPECT_NEAR(r.perfDegradation(r.leg("global")),
                r.perfDegradation(r.leg("dyn5")), 0.05);
    EXPECT_GT(r.globalFrequency, 250e6);
    EXPECT_LT(r.globalFrequency, 1e9);

    // The headline: at matched degradation, per-domain scaling saves
    // more energy than global scaling (paper Figures 6-7).
    EXPECT_GT(r.energySavings(r.leg("dyn5")),
              r.energySavings(r.leg("global")));
    EXPECT_GT(r.edpImprovement(r.leg("dyn5")),
              r.edpImprovement(r.leg("global")));

    EXPECT_GT(r.scheduleSize("dyn5"), 0u);
}

TEST(Experiment, TraceSkipLeavesMcdBaselineBitIdentical)
{
    // A leg set with no schedule-replay leg skips trace collection in
    // the profiling run; the MCD baseline it reports (Fig 5) must not
    // move by a single bit.
    ExperimentConfig full;
    ExperimentConfig ctrlOnly;
    ctrlOnly.legs = {LegSpec::controllerLeg("online", "online-queue")};
    BenchmarkResults a = ExperimentRunner(full).runBenchmark("adpcm");
    BenchmarkResults b = ExperimentRunner(ctrlOnly).runBenchmark("adpcm");
    ASSERT_FALSE(a.mcdBaseline.failed());
    ASSERT_FALSE(b.mcdBaseline.failed());
    EXPECT_EQ(a.mcdBaseline.execTime, b.mcdBaseline.execTime);
    EXPECT_EQ(a.mcdBaseline.committed, b.mcdBaseline.committed);
    EXPECT_EQ(a.mcdBaseline.totalEnergy, b.mcdBaseline.totalEnergy);

    // Every serialized field, via the cache record format.
    EXPECT_EQ(cacheRecord(a), cacheRecord(b));
    EXPECT_EQ(a.leg("online").totalEnergy, b.leg("online").totalEnergy);
}

TEST(Experiment, CacheRoundtrip)
{
    std::string dir = std::filesystem::temp_directory_path() /
        "mcd-test-cache";
    std::filesystem::remove_all(dir);

    ExperimentConfig ec;
    ec.cacheDir = dir;
    ExperimentRunner a(ec);
    BenchmarkResults first = a.runBenchmark("mst");

    ExperimentRunner b(ec);
    BenchmarkResults second = b.runBenchmark("mst");
    EXPECT_EQ(first.baseline.execTime, second.baseline.execTime);
    EXPECT_DOUBLE_EQ(first.leg("dyn5").totalEnergy,
                     second.leg("dyn5").totalEnergy);
    EXPECT_DOUBLE_EQ(first.globalFrequency, second.globalFrequency);
    EXPECT_EQ(first.scheduleSize("dyn1"), second.scheduleSize("dyn1"));
    // The cached row rehydrates its leg specs from the live config.
    ASSERT_EQ(second.legs.size(), 4u);
    EXPECT_EQ(second.legs[2].spec.kind, LegSpec::Kind::GlobalSearch);
    EXPECT_EQ(second.legs[3].spec.controller, "online-queue");
    for (int d = 0; d < numDomains; ++d) {
        EXPECT_EQ(first.leg("dyn5").domains[d].reconfigurations,
                  second.leg("dyn5").domains[d].reconfigurations);
        EXPECT_DOUBLE_EQ(first.leg("dyn5").domains[d].avgFrequency,
                         second.leg("dyn5").domains[d].avgFrequency);
    }
    std::filesystem::remove_all(dir);
}

/** Crude well-formedness check: balanced {} and [] outside strings. */
void
expectBalancedJson(const std::string &text)
{
    int brace = 0, bracket = 0;
    bool inString = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        switch (c) {
          case '"': inString = true; break;
          case '{': ++brace; break;
          case '}': --brace; break;
          case '[': ++bracket; break;
          case ']': --bracket; break;
        }
        EXPECT_GE(brace, 0);
        EXPECT_GE(bracket, 0);
    }
    EXPECT_EQ(brace, 0);
    EXPECT_EQ(bracket, 0);
    EXPECT_FALSE(inString);
}

TEST(Experiment, JsonEmitterIsWellFormedAndComplete)
{
    ExperimentConfig ec;
    BenchmarkResults r;
    r.name = "synthetic";
    r.baseline.execTime = 1000;
    r.baseline.totalEnergy = 2.0;
    r.baseline.energyDelay = 4.0;
    r.baseline.ipc = 1.2345678901234567;
    for (const LegSpec &spec : defaultLegs(ec))
        r.legs.push_back({spec, RunResult{}, 0});
    RunResult &online = r.legs.back().run;
    online.execTime = 1100;
    online.totalEnergy = 1.5;
    online.energyDelay = 3.0;

    std::ostringstream os;
    writeResultsJson(os, ec, {r});
    std::string text = os.str();

    expectBalancedJson(text);
    for (const char *key :
         {"\"config\"", "\"benchmarks\"", "\"runs\"", "\"derived\"",
          "\"baseline\"", "\"mcdBaseline\"", "\"dyn1\"", "\"dyn5\"",
          "\"global\"", "\"online\"", "\"domains\"", "\"execTimePs\"",
          "\"energySavings\"", "\"onlineIntervalPs\""}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }
    // Doubles survive at full precision (setprecision(17)).
    EXPECT_NE(text.find("1.2345678901234567"), std::string::npos);
    // online derived vs baseline: 1 - 1.5/2.0 = 0.25 energy savings.
    EXPECT_NE(text.find("\"energySavings\": 0.25"), std::string::npos);
}

TEST(Experiment, RunMatrixHonorsResultsJsonEnv)
{
    std::string path = std::filesystem::temp_directory_path() /
        "mcd-test-results.json";
    std::filesystem::remove(path);
    ::setenv("MCD_RESULTS_JSON", path.c_str(), 1);

    ExperimentConfig ec;
    runMatrix(ec, {"mst"}, 1);
    ::unsetenv("MCD_RESULTS_JSON");

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "runMatrix did not write " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    expectBalancedJson(ss.str());
    EXPECT_NE(ss.str().find("\"name\": \"mst\""), std::string::npos);
    EXPECT_NE(ss.str().find("\"online\""), std::string::npos);
    std::filesystem::remove(path);
}

TEST(Experiment, CacheKeyDistinguishesConfigs)
{
    std::string dir = std::filesystem::temp_directory_path() /
        "mcd-test-cache2";
    std::filesystem::remove_all(dir);

    ExperimentConfig x;
    x.cacheDir = dir;
    ExperimentRunner rx(x);
    BenchmarkResults xs = rx.runBenchmark("mst");

    ExperimentConfig t = x;
    t.model = DvfsKind::Transmeta;
    ExperimentRunner rt(t);
    BenchmarkResults tm = rt.runBenchmark("mst");

    // Different models must not alias in the cache: the Transmeta
    // run has PLL re-lock stalls, so the dynamic results differ.
    EXPECT_NE(xs.leg("dyn5").execTime, tm.leg("dyn5").execTime);
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------- leg spec grammar

void
expectLegEqual(const LegSpec &a, const LegSpec &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.display, b.display);
    EXPECT_EQ(a.kind, b.kind);
    // Bit-identical, not approximately equal: the repro files the
    // fuzz shrinker writes depend on exact double round-trips.
    EXPECT_EQ(a.dilation, b.dilation);
    EXPECT_EQ(a.reference, b.reference);
    EXPECT_EQ(a.controller, b.controller);
    EXPECT_EQ(a.params, b.params);
}

TEST(LegSpecGrammar, ToSpecRoundTripsAllThreeKinds)
{
    std::vector<LegSpec> legs = {
        LegSpec::scheduleReplay("dyn5", 0.05),
        LegSpec::scheduleReplay("dyn1", 0.017, "dynamic-1%"),
        LegSpec::globalSearch("global", "dyn5"),
        LegSpec::controllerLeg("online", "online-queue"),
        LegSpec::controllerLeg("pid", "pid", "kp=0.4,ki=0.05"),
    };
    for (const LegSpec &l : legs) {
        LegSpec back = LegSpec::fromSpec(l.toSpec());
        expectLegEqual(back, l);
        EXPECT_EQ(back.toSpec(), l.toSpec());
    }
    // Vector form: '|'-joined, order-preserving.
    std::vector<LegSpec> parsed = legsFromSpec(legsToSpec(legs));
    ASSERT_EQ(parsed.size(), legs.size());
    for (std::size_t i = 0; i < legs.size(); ++i)
        expectLegEqual(parsed[i], legs[i]);
}

TEST(LegSpecGrammar, ToSpecRoundTripsRandomizedDilations)
{
    // Dilations land on awkward doubles (thirds, tiny magnitudes);
    // the emitter must pick enough digits to reparse bit-identically.
    std::uint64_t state = 12345;
    for (int trial = 0; trial < 300; ++trial) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        double frac = static_cast<double>(state >> 11) /
            static_cast<double>(1ULL << 53);
        double dilation = frac / 3.0 + 1e-9;
        LegSpec l = LegSpec::scheduleReplay(
            "leg" + std::to_string(trial % 7), dilation);
        LegSpec back = LegSpec::fromSpec(l.toSpec());
        ASSERT_EQ(back.dilation, dilation) << l.toSpec();
        ASSERT_EQ(back.toSpec(), l.toSpec());
    }
}

TEST(LegSpecGrammar, MalformedSpecsAreFatal)
{
    EXPECT_THROW(LegSpec::fromSpec(""), FatalError);
    EXPECT_THROW(LegSpec::fromSpec("dyn5"), FatalError);
    EXPECT_THROW(LegSpec::fromSpec("dyn5=bogus:1"), FatalError);
    EXPECT_THROW(LegSpec::fromSpec("dyn5=replay:notanumber"),
                 FatalError);
    EXPECT_THROW(LegSpec::fromSpec("=replay:0.05"), FatalError);
    EXPECT_THROW(legsFromSpec("dyn5=replay:0.05|junk"), FatalError);
}

} // namespace
} // namespace mcd
