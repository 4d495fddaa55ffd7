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
#include <sstream>
#include <string>
#include <thread>

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
    prof.publish(reg);
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
    prof.publish(reg);

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
    prof.publish(reg2);
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
    prof.publish(reg);
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
    prof.publish(reg);
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
    prof.publish(reg);
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
    prof.publish(reg);
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
    // Per benchmark: baseline, mcdBaseline, shake and the default legs.
    EXPECT_GE(durUs.size(), 2 * (3 + ec.legs.size()));
    for (const auto &[site, us] : durUs) {
        EXPECT_NEAR(gauge(reg, "host.leg." + site + ".wall_ms"),
                    us / 1e3, 1e-9)
            << site;
    }
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
    prof.writeProfile(os);
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
    prof.publish(reg);
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
