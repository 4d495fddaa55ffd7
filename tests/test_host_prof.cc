/**
 * @file
 * Tests for the host-side run profiler (src/obs/host_prof.*): scoped
 * phases and their self time, the legs and pool figures derived from
 * the slices, the aggregated host.* stats view, and the standalone
 * Chrome-trace profile.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/thread_pool.hh"
#include "core/experiment.hh"
#include "obs/host_prof.hh"
#include "obs/stats_registry.hh"

namespace mcd {
namespace {

using obs::HostProfiler;
using obs::StatsRegistry;

/** Re-arm the singleton and guarantee it is disarmed on exit. */
struct Armed
{
    Armed() { HostProfiler::instance().reset(true); }
    ~Armed() { HostProfiler::instance().reset(false); }
};

double
gauge(const StatsRegistry &reg, const std::string &name)
{
    const auto *e = reg.find(name);
    EXPECT_NE(e, nullptr) << name;
    return e ? std::get<obs::Gauge>(e->stat).value() : 0.0;
}

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/**
 * Slack for comparing a sum of per-kind self_ms gauges with a window:
 * the profiler sums in integer nanoseconds, but each gauge is rounded
 * to a double on its own, so their double sum may exceed the exact
 * total in the last place.
 */
constexpr double roundingMs = 1e-9;

/** Sum of host.phase.*.self_ms: the profile's total self time. */
double
selfMsOverAllKinds(const StatsRegistry &reg)
{
    double sum = 0.0;
    for (const auto &e : reg.entries()) {
        const std::string suffix = ".self_ms";
        if (e.name.rfind("host.phase.", 0) == 0 &&
            e.name.size() > suffix.size() &&
            e.name.compare(e.name.size() - suffix.size(), suffix.size(),
                           suffix) == 0)
            sum += std::get<obs::Gauge>(e.stat).value();
    }
    return sum;
}

TEST(HostProfiler, DisabledScopesRecordNothing)
{
    HostProfiler &prof = HostProfiler::instance();
    prof.reset(false);
    EXPECT_FALSE(prof.enabled());
    { HostProfiler::Scope s = prof.phase("simulate", "adpcm/dyn5"); }

    StatsRegistry reg;
    prof.snapshot().publish(reg);
    EXPECT_EQ(reg.find("host.phase.simulate.count"), nullptr);
    EXPECT_EQ(reg.find("host.leg.adpcm/dyn5.wall_ms"), nullptr);
    EXPECT_EQ(reg.find("host.pool.lanes"), nullptr);
}

TEST(HostProfiler, PublishAggregatesPhasesLegsAndPool)
{
    Armed armed;
    HostProfiler &prof = HostProfiler::instance();
    { HostProfiler::Scope s = prof.phase("validate"); }
    { HostProfiler::Scope s = prof.phase("simulate", "adpcm/baseline"); }
    { HostProfiler::Scope s = prof.phase("simulate", "adpcm/dyn5"); }
    {
        // A leg simulated twice reports once, from its latest slice.
        HostProfiler::Scope s = prof.phase("simulate", "adpcm/dyn5");
        sleepMs(5);
    }

    StatsRegistry reg;
    prof.snapshot().publish(reg);

    const auto *count = reg.find("host.phase.simulate.count");
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(std::get<obs::Counter>(count->stat).value(), 3u);
    EXPECT_NE(reg.find("host.phase.simulate.self_ms"), nullptr);
    EXPECT_NE(reg.find("host.phase.simulate.max_ms"), nullptr);
    EXPECT_NE(reg.find("host.phase.validate.count"), nullptr);

    // The latest dyn5 slice is the longest simulate slice.
    EXPECT_GE(gauge(reg, "host.leg.adpcm/dyn5.wall_ms"), 5.0);
    EXPECT_DOUBLE_EQ(gauge(reg, "host.leg.adpcm/dyn5.wall_ms"),
                     gauge(reg, "host.phase.simulate.max_ms"));
    EXPECT_GT(gauge(reg, "host.leg.adpcm/dyn5.peak_rss_kb"), 0.0);
    EXPECT_NE(reg.find("host.leg.adpcm/baseline.wall_ms"), nullptr);
    EXPECT_EQ(reg.find("host.leg.validate.wall_ms"), nullptr);

    // One thread, sequential slices: the window covers their self
    // time.
    EXPECT_DOUBLE_EQ(gauge(reg, "host.pool.lanes"), 1.0);
    EXPECT_LE(gauge(reg, "host.pool.self_ms"),
              gauge(reg, "host.pool.wall_ms"));
    EXPECT_NEAR(gauge(reg, "host.pool.self_ms"), selfMsOverAllKinds(reg),
                roundingMs);

    // The key set is deterministic: publishing twice into fresh
    // registries yields the same names in the same order.
    StatsRegistry reg2;
    prof.snapshot().publish(reg2);
    ASSERT_EQ(reg.size(), reg2.size());
    for (std::size_t i = 0; i < reg.size(); ++i)
        EXPECT_EQ(reg.entries()[i].name, reg2.entries()[i].name);
}

TEST(HostProfiler, NestedScopeSelfTimeExcludesChildren)
{
    Armed armed;
    HostProfiler &prof = HostProfiler::instance();
    {
        HostProfiler::Scope parent = prof.phase("simulate", "mst/shake");
        sleepMs(5);
        {
            HostProfiler::Scope child = prof.phase("analyze", "mst/shake");
            sleepMs(20);
        }
        sleepMs(5);
    }

    StatsRegistry reg;
    prof.snapshot().publish(reg);
    // One slice per kind, so max_ms is each slice's inclusive time.
    const double parentMs = gauge(reg, "host.phase.simulate.max_ms");
    const double childMs = gauge(reg, "host.phase.analyze.max_ms");
    EXPECT_GE(childMs, 20.0);
    EXPECT_DOUBLE_EQ(gauge(reg, "host.phase.analyze.self_ms"), childMs);
    EXPECT_NEAR(gauge(reg, "host.phase.simulate.self_ms"),
                parentMs - childMs, 1e-9);
    EXPECT_LE(selfMsOverAllKinds(reg),
              gauge(reg, "host.pool.wall_ms") + roundingMs);
}

TEST(HostProfiler, ScopeInsideInlinePoolTaskIsNotCountedTwice)
{
    Armed armed;
    HostProfiler &prof = HostProfiler::instance();
    ThreadPool inlinePool(0);
    {
        HostProfiler::Scope outer = prof.phase("simulate", "adpcm/dyn1");
        auto fut = inlinePool.submit([&prof] {
            HostProfiler::Scope s = prof.phase("analyze", "adpcm/dyn1");
            sleepMs(20);
        });
        inlinePool.wait(fut);
        sleepMs(5);
    }

    StatsRegistry reg;
    prof.snapshot().publish(reg);
    const double wallMs = gauge(reg, "host.pool.wall_ms");
    EXPECT_GE(gauge(reg, "host.phase.analyze.self_ms"), 20.0);
    EXPECT_LE(gauge(reg, "host.phase.simulate.self_ms"),
              gauge(reg, "host.phase.simulate.max_ms") - 20.0);
    EXPECT_LE(selfMsOverAllKinds(reg), wallMs + roundingMs);
    EXPECT_DOUBLE_EQ(gauge(reg, "host.phase.simulate.max_ms"), wallMs);
}

TEST(HostProfiler, ScopeInTaskRunByHelpingWaitIsNested)
{
    Armed armed;
    HostProfiler &prof = HostProfiler::instance();
    ThreadPool pool(1);
    // Park the only worker so the helping wait below must run the
    // second task on this thread, inside the open simulate scope.
    std::promise<void> parked;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    auto blocker = pool.submit([&parked, released] {
        parked.set_value();
        released.wait();
    });
    parked.get_future().wait();
    {
        HostProfiler::Scope outer = prof.phase("simulate", "mst/dyn5");
        auto task = pool.submit([&prof] {
            HostProfiler::Scope s = prof.phase("analyze", "mst/dyn5");
            sleepMs(20);
            return std::this_thread::get_id();
        });
        EXPECT_EQ(pool.wait(task), std::this_thread::get_id());
    }
    release.set_value();
    pool.wait(blocker);

    StatsRegistry reg;
    prof.snapshot().publish(reg);
    EXPECT_DOUBLE_EQ(gauge(reg, "host.pool.lanes"), 1.0);
    EXPECT_NEAR(gauge(reg, "host.phase.simulate.self_ms"),
                gauge(reg, "host.phase.simulate.max_ms") -
                    gauge(reg, "host.phase.analyze.max_ms"),
                1e-9);
    EXPECT_LE(selfMsOverAllKinds(reg),
              gauge(reg, "host.pool.wall_ms") + roundingMs);
}

TEST(HostProfiler, ProfiledMatrixSelfTimeFitsLanesAndLegsMatchSlices)
{
    const std::filesystem::path out =
        std::filesystem::temp_directory_path() /
        ("mcd-host-prof-" + std::to_string(::getpid()) + ".json");
    ::setenv("MCD_PROF_OUT", out.string().c_str(), 1);
    ExperimentConfig ec;
    runMatrix(ec, {"adpcm", "mst"}, /*jobs=*/2);
    ::unsetenv("MCD_PROF_OUT");

    HostProfiler &prof = HostProfiler::instance();
    StatsRegistry reg;
    prof.snapshot().publish(reg);
    prof.reset(false);

    const double lanes = gauge(reg, "host.pool.lanes");
    const double wallMs = gauge(reg, "host.pool.wall_ms");
    EXPECT_GE(lanes, 1.0);
    EXPECT_LE(lanes, 3.0);      // the main thread and two workers
    EXPECT_LE(selfMsOverAllKinds(reg), wallMs * lanes + roundingMs);
    EXPECT_LE(gauge(reg, "host.pool.self_ms"), wallMs * lanes + roundingMs);

    // Every leg's wall time is its simulate slice's inclusive "dur"
    // in the Chrome trace runMatrix wrote.
    std::ifstream in(out);
    ASSERT_TRUE(in) << out;
    const std::regex slice(
        "\"name\": \"simulate\".*\"dur\": ([^,]+),.*"
        "\"detail\": \"([^\"]+)\"");
    std::map<std::string, double> durUs;
    for (std::string line; std::getline(in, line);) {
        std::smatch m;
        if (std::regex_search(line, m, slice))
            durUs[m[2]] = std::stod(m[1]);
    }
    in.close();
    std::filesystem::remove(out);
    // Per benchmark: baseline, mcdBaseline and the default legs.
    EXPECT_GE(durUs.size(), 2 * (2 + ec.legs.size()));
    for (const auto &[site, us] : durUs) {
        EXPECT_NEAR(gauge(reg, "host.leg." + site + ".wall_ms"),
                    us / 1e3, 1e-9)
            << site;
    }
}

/** Every capture group 1 of @p re in @p text, in order. */
std::vector<std::string>
matches(const std::string &text, const std::string &re)
{
    std::vector<std::string> out;
    const std::regex r(re);
    for (auto it = std::sregex_iterator(text.begin(), text.end(), r);
         it != std::sregex_iterator(); ++it)
        out.push_back((*it)[1]);
    return out;
}

/** The stats document and the host profile of one profiled paper-leg
 *  matrix over adpcm and mst, run once for the tests below. */
struct ProfiledDocuments
{
    std::string stats;
    std::string profile;
};

const ProfiledDocuments &
profiledDocuments()
{
    static const ProfiledDocuments docs = [] {
        const std::filesystem::path dir =
            std::filesystem::temp_directory_path() /
            ("mcd-host-docs-" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir);
        const std::string stats = (dir / "stats.json").string();
        const std::string prof = (dir / "prof.json").string();
        ::setenv("MCD_STATS_OUT", stats.c_str(), 1);
        ::setenv("MCD_PROF_OUT", prof.c_str(), 1);
        runMatrix(ExperimentConfig{}, {"adpcm", "mst"}, /*jobs=*/2);
        ::unsetenv("MCD_STATS_OUT");
        ::unsetenv("MCD_PROF_OUT");
        HostProfiler::instance().reset(false);
        auto slurp = [](const std::string &path) {
            std::ifstream in(path);
            std::ostringstream ss;
            ss << in.rdbuf();
            return ss.str();
        };
        ProfiledDocuments d{slurp(stats), slurp(prof)};
        std::filesystem::remove_all(dir);
        return d;
    }();
    return docs;
}

TEST(HostProfiler, ProfileListsSixPaperLegsPerBenchmarkAndNoShake)
{
    const ProfiledDocuments &docs = profiledDocuments();
    // baseline, mcdBaseline, dyn1, dyn5, global, online.
    std::map<std::string, int> legsPerBench;
    for (const std::string &site :
         matches(docs.profile, "\"site\": \"([^\"]+)\"")) {
        EXPECT_FALSE(site.size() >= 6 &&
                     site.compare(site.size() - 6, 6, "/shake") == 0)
            << site;
        ++legsPerBench[site.substr(0, site.find('/'))];
    }
    EXPECT_EQ(legsPerBench,
              (std::map<std::string, int>{{"adpcm", 6}, {"mst", 6}}));
    // The shake is still profiled, as analysis.
    EXPECT_NE(docs.profile.find("\"detail\": \"adpcm/shake\""),
              std::string::npos);
}

TEST(HostProfiler, StatsAndProfilePrintOneSnapshot)
{
    const ProfiledDocuments &docs = profiledDocuments();
    const std::vector<std::string> statsWall =
        matches(docs.stats, "\"host\\.pool\\.wall_ms\": ([^,\n]+)");
    const std::vector<std::string> profWall = matches(
        docs.profile, "\"pool\": \\{\"lanes\": [0-9]+, "
                      "\"wallMs\": ([^,]+),");
    ASSERT_EQ(statsWall.size(), 1u) << docs.stats;
    ASSERT_EQ(profWall.size(), 1u) << docs.profile;
    EXPECT_EQ(std::stod(statsWall[0]), std::stod(profWall[0]));

    // The peak RSS is part of the snapshot too. The profile's legs
    // carry theirs inline; the summary's stands on its own line.
    const std::vector<std::string> statsRss =
        matches(docs.stats, "\"host\\.peak_rss_kb\": ([^,\n]+)");
    const std::vector<std::string> profRss =
        matches(docs.profile, "\"peakRssKb\": ([0-9]+)\n");
    ASSERT_EQ(statsRss.size(), 1u);
    ASSERT_EQ(profRss.size(), 1u);
    EXPECT_EQ(std::stod(statsRss[0]), std::stod(profRss[0]));

    const std::vector<std::string> statsPhases = matches(
        docs.stats, "\"host\\.phase\\.([a-z.]+)\\.count\"");
    const std::vector<std::string> profPhases =
        matches(docs.profile, "\"([a-z.]+)\": \\{\"count\"");
    EXPECT_FALSE(statsPhases.empty());
    EXPECT_EQ(std::set<std::string>(statsPhases.begin(),
                                    statsPhases.end()),
              std::set<std::string>(profPhases.begin(), profPhases.end()));
}

TEST(HostProfiler, WriteProfileEmitsChromeTraceWithHostSummary)
{
    Armed armed;
    HostProfiler &prof = HostProfiler::instance();
    {
        HostProfiler::Scope s = prof.phase("simulate", "mst/online");
    }
    std::thread t([&] {
        HostProfiler::Scope s = prof.phase("analyze", "mst/dyn1");
    });
    t.join();

    std::ostringstream os;
    prof.snapshot().writeProfile(os);
    std::string text = os.str();
    for (const char *key :
         {"\"traceEvents\"", "\"process_name\"", "\"host\"",
          "\"simulate\"", "\"analyze\"", "\"mst/online\"",
          "\"phases\"", "\"selfMs\"", "\"legs\"", "\"site\"",
          "\"pool\": {\"lanes\": 2, \"wallMs\"", "\"peakRssKb\"",
          "\"ph\": \"X\""}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }
    // Two distinct host threads: two thread-name lanes.
    std::size_t lanes = 0;
    for (std::size_t p = text.find("\"thread_name\"");
         p != std::string::npos;
         p = text.find("\"thread_name\"", p + 1)) {
        ++lanes;
    }
    EXPECT_EQ(lanes, 2u);
}

TEST(HostProfiler, ResetDropsRecordedData)
{
    Armed armed;
    HostProfiler &prof = HostProfiler::instance();
    { HostProfiler::Scope s = prof.phase("render", "fig5"); }
    prof.reset(true);
    StatsRegistry reg;
    prof.snapshot().publish(reg);
    EXPECT_EQ(reg.find("host.phase.render.count"), nullptr);
}

TEST(HostProfiler, PeakRssIsNonZeroOnSupportedPlatforms)
{
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_GT(HostProfiler::peakRssKb(), 0u);
#else
    GTEST_SKIP() << "no getrusage on this platform";
#endif
}

} // namespace
} // namespace mcd
