/**
 * @file
 * Tests for the controller zoo and the leg-parametric matrix: the
 * ControllerRegistry (built-ins, actionable unknown-name rejection,
 * param-spec parsing), the semantics of the PID / governor-family /
 * table policies on synthetic occupancy sequences, the tournament leg
 * set, leaderboard ranking and JSON emission, cache-key separation of
 * leg sets, and jobs=1-vs-N determinism of custom controller legs.
 */

#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "control/governor.hh"
#include "control/pid.hh"
#include "control/registry.hh"
#include "control/table_policy.hh"
#include "core/experiment.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

/** Observation with @p occ mean occupancy on @p d's queue. */
DomainStats
statsFor(Domain d, double occ, Hertz freq)
{
    DomainStats s;
    s.domain = d;
    s.windowCycles = 1000;
    s.queueCapacity = 64;
    s.occupancySum =
        static_cast<std::uint64_t>(occ * 1000.0 * 64.0 + 0.5);
    s.queueLength = static_cast<std::size_t>(occ * 64.0);
    s.frequency = freq;
    return s;
}

TEST(ControllerRegistry, BuiltInsRegisteredInOrder)
{
    const std::vector<std::string> want{
        "online-queue",          "pid",
        "governor-performance",  "governor-powersave",
        "governor-ondemand",     "governor-conservative",
        "table",
    };
    ControllerRegistry &reg = ControllerRegistry::instance();
    EXPECT_EQ(reg.names(), want);
    for (const std::string &n : want) {
        EXPECT_TRUE(reg.contains(n)) << n;
        EXPECT_FALSE(reg.describe(n).empty()) << n;
    }
    EXPECT_FALSE(reg.contains("bogus"));
    EXPECT_TRUE(reg.describe("bogus").empty());

    // A matrix-ready controller comes out of every factory.
    ControllerContext ctx;
    for (const std::string &n : want) {
        auto c = reg.make(n, ctx);
        ASSERT_TRUE(c) << n;
        EXPECT_GT(c->samplePeriod(), 0u) << n;
    }
}

TEST(ControllerRegistry, UnknownNameEnumeratesRegistered)
{
    ControllerContext ctx;
    try {
        ControllerRegistry::instance().make("bogus", ctx);
        FAIL() << "make() accepted an unknown controller";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown controller 'bogus'"),
                  std::string::npos) << msg;
        // Actionable: the message lists every registered name.
        for (const char *n : {"online-queue", "pid",
                              "governor-conservative", "table"})
            EXPECT_NE(msg.find(n), std::string::npos) << msg;
    }
}

TEST(ControllerRegistry, ParamSpecGrammar)
{
    auto kv = parseControllerParams("setpoint=0.5,kp=32", "test");
    ASSERT_EQ(kv.size(), 2u);
    EXPECT_EQ(kv[0].first, "setpoint");
    EXPECT_DOUBLE_EQ(kv[0].second, 0.5);
    EXPECT_EQ(kv[1].first, "kp");
    EXPECT_DOUBLE_EQ(kv[1].second, 32.0);
    EXPECT_TRUE(parseControllerParams("", "test").empty());

    EXPECT_THROW(parseControllerParams("setpoint", "test"), FatalError);
    EXPECT_THROW(parseControllerParams("=1", "test"), FatalError);
    EXPECT_THROW(parseControllerParams("setpoint=", "test"), FatalError);
    EXPECT_THROW(parseControllerParams("setpoint=abc", "test"),
                 FatalError);
}

TEST(ControllerRegistry, FactoriesApplyAndRejectParams)
{
    ControllerContext ctx;

    auto pid = ControllerRegistry::instance().make(
        "pid", ctx, "setpoint=0.5,kp=32,interval-us=5");
    auto *p = dynamic_cast<PidController *>(pid.get());
    ASSERT_NE(p, nullptr);
    EXPECT_DOUBLE_EQ(p->params().setpoint, 0.5);
    EXPECT_DOUBLE_EQ(p->params().kp, 32.0);
    EXPECT_EQ(p->samplePeriod(), fromMicroseconds(5.0));
    EXPECT_FALSE(p->params().scaleFrontEnd);

    auto gov = ControllerRegistry::instance().make(
        "governor-ondemand", ctx, "up-threshold=0.75,scale-fe=1");
    auto *g = dynamic_cast<GovernorController *>(gov.get());
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->policy(), GovernorPolicy::Ondemand);
    EXPECT_DOUBLE_EQ(g->params().upThreshold, 0.75);
    EXPECT_TRUE(g->params().scaleFrontEnd);

    // Unknown keys are fatal and the message enumerates the valid set.
    try {
        ControllerRegistry::instance().make("pid", ctx, "gain=3");
        FAIL() << "factory accepted an unknown param";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown param 'gain'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("setpoint"), std::string::npos) << msg;
        EXPECT_NE(msg.find("interval-us"), std::string::npos) << msg;
    }
    EXPECT_THROW(ControllerRegistry::instance().make(
                     "table", ctx, "setpoint=0.5"),
                 FatalError);
}

TEST(PidController, RaisesOnBacklogLowersOnSlack)
{
    DvfsTable table;
    int top = table.numPoints() - 1;
    PidController c{PidParams{}, table};
    EXPECT_STREQ(c.name(), "pid");
    EXPECT_EQ(c.pointIndex(Domain::Integer), -1);

    // First observation latches the starting point; no request.
    c.observe(statsFor(Domain::Integer, 0.45, 1e9), 0);
    EXPECT_EQ(c.pointIndex(Domain::Integer), top);
    EXPECT_TRUE(c.requests().empty());

    // Sustained slack drives the point down...
    for (int i = 0; i < 6; ++i)
        c.observe(statsFor(Domain::Integer, 0.05, 1e9), 0);
    int low = c.pointIndex(Domain::Integer);
    EXPECT_LT(low, top);
    EXPECT_FALSE(c.requests().empty());
    c.clearRequests();

    // ...and a backlog drives it back up.
    for (int i = 0; i < 6; ++i)
        c.observe(statsFor(Domain::Integer, 0.95, 1e9), 0);
    EXPECT_GT(c.pointIndex(Domain::Integer), low);

    // The front end stays pinned (the paper's choice).
    c.observe(statsFor(Domain::FrontEnd, 0.0, 1e9), 0);
    c.observe(statsFor(Domain::FrontEnd, 0.0, 1e9), 0);
    EXPECT_EQ(c.pointIndex(Domain::FrontEnd), -1);
}

TEST(GovernorController, StaticPoliciesPinTheEndpoints)
{
    DvfsTable table;
    GovernorController perf{GovernorPolicy::Performance};
    EXPECT_STREQ(perf.name(), "governor-performance");
    perf.observe(statsFor(Domain::Integer, 0.5, 500e6), 0);
    ASSERT_EQ(perf.requests().size(), 1u);
    EXPECT_DOUBLE_EQ(perf.requests()[0].frequency,
                     table.fastest().frequency);

    GovernorController save{GovernorPolicy::Powersave};
    EXPECT_STREQ(save.name(), "governor-powersave");
    save.observe(statsFor(Domain::LoadStore, 0.5, 1e9), 0);
    ASSERT_EQ(save.requests().size(), 1u);
    EXPECT_DOUBLE_EQ(save.requests()[0].frequency,
                     table.slowest().frequency);
}

TEST(GovernorController, OndemandJumpsAndTracksLoad)
{
    DvfsTable table;
    int top = table.numPoints() - 1;
    GovernorController c{GovernorPolicy::Ondemand};

    c.observe(statsFor(Domain::Integer, 0.5, 1e9), 0);  // latch
    EXPECT_EQ(c.pointIndex(Domain::Integer), top);

    // Below the up-threshold: track proportionally to load.
    c.observe(statsFor(Domain::Integer, 0.3, 1e9), 0);
    int tracked = c.pointIndex(Domain::Integer);
    EXPECT_LT(tracked, top);
    EXPECT_GT(tracked, 0);

    // At/above the up-threshold: jump straight to full speed.
    c.observe(statsFor(Domain::Integer, 0.7, 1e9), 0);
    EXPECT_EQ(c.pointIndex(Domain::Integer), top);
}

TEST(GovernorController, ConservativeStepsAndRollsBack)
{
    DvfsTable table;
    int top = table.numPoints() - 1;
    GovernorParams prm;
    GovernorController c{GovernorPolicy::Conservative, prm};

    c.observe(statsFor(Domain::Integer, 0.5, 1e9), 0);  // latch
    EXPECT_FALSE(c.rollbackArmed(Domain::Integer));

    // A quiet interval steps down and arms the rollback point.
    c.observe(statsFor(Domain::Integer, 0.1, 1e9), 0);
    EXPECT_EQ(c.pointIndex(Domain::Integer), top - prm.stepPoints);
    EXPECT_TRUE(c.rollbackArmed(Domain::Integer));

    // Mid-band occupancy holds (the rollback stays armed).
    c.observe(statsFor(Domain::Integer, 0.4, 1e9), 0);
    EXPECT_EQ(c.pointIndex(Domain::Integer), top - prm.stepPoints);
    EXPECT_TRUE(c.rollbackArmed(Domain::Integer));

    // The queue backing up past the up-threshold fires the revert:
    // one jump back to the saved point, not a step-by-step climb.
    c.observe(statsFor(Domain::Integer, 0.9, 1e9), 0);
    EXPECT_EQ(c.pointIndex(Domain::Integer), top);
    EXPECT_FALSE(c.rollbackArmed(Domain::Integer));
}

TEST(TablePolicyController, TrainedTableDecaysAndSaturates)
{
    DvfsTable table;
    int top = table.numPoints() - 1;
    TablePolicyController c;
    EXPECT_STREQ(c.name(), "table");

    c.observe(statsFor(Domain::Integer, 0.0, 1e9), 0);  // latch
    EXPECT_EQ(c.pointIndex(Domain::Integer), top);

    // Idle queue: the trained table decays hard.
    c.observe(statsFor(Domain::Integer, 0.0, 1e9), 0);
    int decayed = c.pointIndex(Domain::Integer);
    EXPECT_LT(decayed, top);

    // Saturated queue: the top bucket slams to full speed.
    c.observe(statsFor(Domain::Integer, 0.95, 1e9), 0);
    EXPECT_EQ(c.pointIndex(Domain::Integer), top);
}

TEST(LegSpecs, TournamentSetCoversRegistry)
{
    ExperimentConfig ec;
    std::vector<LegSpec> legs = tournamentLegs(ec);
    std::vector<std::string> names =
        ControllerRegistry::instance().names();
    ASSERT_EQ(legs.size(), names.size() + 1);
    EXPECT_GE(legs.size(), 6u);     // >= 5 controllers + the oracle

    // The dyn5 schedule-replay oracle anchors the ranking...
    EXPECT_EQ(legs[0].name, "dyn5");
    EXPECT_EQ(legs[0].kind, LegSpec::Kind::ScheduleReplay);
    EXPECT_DOUBLE_EQ(legs[0].dilation, ec.dilationHigh);

    // ...and every registered controller fields one leg.
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(legs[i + 1].kind, LegSpec::Kind::Controller);
        EXPECT_EQ(legs[i + 1].controller, names[i]);
    }
}

TEST(Matrix, CacheKeySeparatesLegSets)
{
    ExperimentConfig base;
    base.cacheDir = "/tmp/mcd-zoo-keys";
    ExperimentRunner a(base);

    ExperimentConfig tuned = base;
    tuned.legs = defaultLegs(base);
    tuned.legs[3].params = "attack-threshold=0.8";
    ExperimentRunner b(tuned);

    ExperimentConfig tourney = base;
    tourney.legs = tournamentLegs(base);
    ExperimentRunner c(tourney);

    // Same benchmark, three distinct cache files: leg names, params,
    // and the leg-set composition are all folded into the key.
    EXPECT_NE(a.cachePath("adpcm"), b.cachePath("adpcm"));
    EXPECT_NE(a.cachePath("adpcm"), c.cachePath("adpcm"));
    EXPECT_NE(b.cachePath("adpcm"), c.cachePath("adpcm"));

    // Controller params and replay dilations are exact parts of the
    // key: a tuned controller, and dilations that differ only past
    // the third decimal, get files of their own.
    auto pathFor = [&](std::vector<LegSpec> legs) {
        ExperimentConfig ec = base;
        ec.legs = std::move(legs);
        return ExperimentRunner(ec).cachePath("adpcm");
    };
    EXPECT_NE(pathFor({LegSpec::controllerLeg("pid", "pid")}),
              pathFor({LegSpec::controllerLeg("pid", "pid", "kp=32")}));
    std::string d05 = pathFor({LegSpec::scheduleReplay("dyn5", 0.05)});
    std::string d01 = pathFor({LegSpec::scheduleReplay("dyn5", 0.01)});
    std::string d05x =
        pathFor({LegSpec::scheduleReplay("dyn5", 0.0500001)});
    EXPECT_NE(d05, d01);
    EXPECT_NE(d05, d05x);
    EXPECT_NE(d01, d05x);

    // An explicit default leg set keys identically to the implicit
    // one.
    ExperimentConfig expl = base;
    expl.legs = defaultLegs(base);
    EXPECT_EQ(a.cachePath("adpcm"),
              ExperimentRunner(expl).cachePath("adpcm"));
}

TEST(Matrix, ValidateRejectsBadLegSets)
{
    ExperimentConfig ec;
    ec.legs = defaultLegs(ec);
    ec.legs.push_back(LegSpec::controllerLeg("zzz", "bogus"));
    EXPECT_THROW(ec.validate(), FatalError);        // unknown controller

    ec.legs = defaultLegs(ec);
    ec.legs.push_back(LegSpec::controllerLeg("dyn5", "pid"));
    EXPECT_THROW(ec.validate(), FatalError);        // duplicate name

    ec.legs = defaultLegs(ec);
    ec.legs.push_back(LegSpec::controllerLeg("baseline", "pid"));
    EXPECT_THROW(ec.validate(), FatalError);        // reserved name

    ec.legs = {LegSpec::globalSearch("global", "nope")};
    EXPECT_THROW(ec.validate(), FatalError);        // dangling reference

    ec.legs = {LegSpec::controllerLeg("pid", "pid", "gain=1")};
    EXPECT_THROW(ec.validate(), FatalError);        // bad param spec
}

TEST(Matrix, CustomControllerLegsDeterministicAcrossJobs)
{
    ExperimentConfig ec;    // empty cacheDir: caching disabled
    ec.legs = {
        LegSpec::controllerLeg("pid", "pid"),
        LegSpec::controllerLeg("ondemand", "governor-ondemand"),
        LegSpec::controllerLeg("table", "table"),
    };
    const std::vector<std::string> names{"adpcm"};

    auto serial = runMatrix(ec, names, 1);
    auto par = runMatrix(ec, names, 8);
    ASSERT_EQ(serial.size(), 1u);
    ASSERT_EQ(par.size(), 1u);
    ASSERT_EQ(serial[0].legs.size(), 3u);
    ASSERT_EQ(par[0].legs.size(), 3u);
    for (std::size_t l = 0; l < serial[0].legs.size(); ++l) {
        SCOPED_TRACE(serial[0].legs[l].spec.name);
        const RunResult &a = serial[0].legs[l].run;
        const RunResult &b = par[0].legs[l].run;
        ASSERT_FALSE(a.failed());
        EXPECT_EQ(a.execTime, b.execTime);
        EXPECT_EQ(a.committed, b.committed);
        EXPECT_EQ(a.totalEnergy, b.totalEnergy);
        EXPECT_EQ(a.energyDelay, b.energyDelay);
        // The controllers actually ran: every leg differs from the
        // all-domains-at-1-GHz MCD baseline.
        EXPECT_NE(a.totalEnergy, serial[0].mcdBaseline.totalEnergy);
    }
}

TEST(Matrix, ControllersEnvFiltersLegSet)
{
    ::setenv("MCD_CONTROLLERS", "dyn5,online", 1);
    ExperimentConfig ec;    // empty legs: resolved at runMatrix() time
    auto rows = runMatrix(ec, {"adpcm"}, 1);
    ::unsetenv("MCD_CONTROLLERS");
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].legs.size(), 2u);
    EXPECT_EQ(rows[0].legs[0].spec.name, "dyn5");
    EXPECT_EQ(rows[0].legs[1].spec.name, "online");
    EXPECT_EQ(rows[0].findLeg("dyn1"), nullptr);

    // Unknown names are fatal and list the available legs.
    ::setenv("MCD_CONTROLLERS", "nope", 1);
    try {
        runMatrix(ec, {"adpcm"}, 1);
        ::unsetenv("MCD_CONTROLLERS");
        FAIL() << "unknown MCD_CONTROLLERS name was accepted";
    } catch (const FatalError &e) {
        ::unsetenv("MCD_CONTROLLERS");
        std::string msg = e.what();
        EXPECT_NE(msg.find("nope"), std::string::npos) << msg;
        EXPECT_NE(msg.find("dyn5"), std::string::npos) << msg;
    }

    // A global-search leg cannot survive without its reference.
    ::setenv("MCD_CONTROLLERS", "global", 1);
    EXPECT_THROW(runMatrix(ec, {"adpcm"}, 1), FatalError);
    ::unsetenv("MCD_CONTROLLERS");
}

/** Synthetic row: baseline EDP 4.0; legs at the given EDPs. */
BenchmarkResults
syntheticRow(const std::string &bench,
             const std::vector<std::pair<std::string, double>> &legs)
{
    BenchmarkResults r;
    r.name = bench;
    r.baseline.execTime = 2000;
    r.baseline.totalEnergy = 2.0;
    r.baseline.energyDelay = 4.0;
    r.mcdBaseline = r.baseline;
    for (const auto &[name, edp] : legs) {
        ControllerLeg l;
        l.spec = LegSpec::controllerLeg(name, "pid");
        l.run.execTime = 2000;
        l.run.totalEnergy = edp / 2.0;
        l.run.energyDelay = edp;
        r.legs.push_back(l);
    }
    return r;
}

TEST(Leaderboard, RanksByMeanEdpImprovementDescending)
{
    // "slow" wins on average; "fast" and "flat" tie on EDP and are
    // broken by name (alphabetical).
    std::vector<BenchmarkResults> rows{
        syntheticRow("a", {{"slow", 2.0}, {"fast", 3.0}, {"flat", 3.0}}),
        syntheticRow("b", {{"slow", 2.4}, {"fast", 3.6}, {"flat", 3.6}}),
    };
    auto board = computeLeaderboard(rows);
    ASSERT_EQ(board.size(), 3u);
    EXPECT_EQ(board[0].spec.name, "slow");
    EXPECT_EQ(board[1].spec.name, "fast");
    EXPECT_EQ(board[2].spec.name, "flat");
    EXPECT_NEAR(board[0].meanEdpImprovement, 0.45, 1e-9);
    EXPECT_NEAR(board[1].meanEdpImprovement, 0.175, 1e-9);
    EXPECT_EQ(board[0].completed, 2u);
    EXPECT_EQ(board[0].failed, 0u);

    // A failed leg drops out of that benchmark's mean but is counted.
    rows[1].legs[0].run.error =
        RunError{"b/slow", "injected", "synthetic", 1};
    board = computeLeaderboard(rows);
    ASSERT_EQ(board.size(), 3u);
    const LeaderboardRow *slow = nullptr;
    for (const LeaderboardRow &row : board)
        if (row.spec.name == "slow")
            slow = &row;
    ASSERT_NE(slow, nullptr);
    EXPECT_EQ(slow->completed, 1u);
    EXPECT_EQ(slow->failed, 1u);
    EXPECT_NEAR(slow->meanEdpImprovement, 0.5, 1e-9);
}

TEST(Leaderboard, JsonIsWellFormedAndRanked)
{
    ExperimentConfig ec;
    std::vector<BenchmarkResults> rows{
        syntheticRow("a", {{"slow", 2.0}, {"fast", 3.0}}),
    };
    std::ostringstream os;
    writeLeaderboardJson(os, ec, rows);
    std::string json = os.str();

    for (const char *key :
         {"\"tournament\"", "\"benchmarks\"", "\"legs\"", "\"model\"",
          "\"leaderboard\"", "\"rank\": 1", "\"rank\": 2",
          "\"name\": \"slow\"", "\"meanEdpImprovement\"",
          "\"meanEnergySavings\"", "\"meanPerfDegradation\"",
          "\"benchmarksCompleted\"", "\"benchmarksFailed\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;

    // Rank 1 is the winner, listed before rank 2.
    EXPECT_LT(json.find("\"name\": \"slow\""),
              json.find("\"name\": \"fast\""));

    // Balanced braces/brackets, no trailing-comma style errors.
    long braces = 0, brackets = 0;
    for (char ch : json) {
        braces += ch == '{';
        braces -= ch == '}';
        brackets += ch == '[';
        brackets -= ch == ']';
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_EQ(json.find(",\n}"), std::string::npos);
    EXPECT_EQ(json.find(",\n  }"), std::string::npos);
}

} // namespace
} // namespace mcd
