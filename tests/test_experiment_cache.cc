/**
 * @file
 * Tests for the experiment results cache layer: serialization
 * round-trip, rejection of truncated / version-mismatched files
 * (silent fallback, never a crash), and atomic publication.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"

namespace mcd {
namespace {

namespace fs = std::filesystem;

/** A fully populated synthetic result (no simulation needed). */
BenchmarkResults
synthetic()
{
    BenchmarkResults r;
    r.name = "synthetic";
    r.globalFrequency = 625e6;
    for (const LegSpec &spec : defaultLegs(ExperimentConfig{}))
        r.legs.push_back({spec, RunResult{}, 0});
    r.legs[0].scheduleSize = 42;    // dyn1
    r.legs[1].scheduleSize = 137;   // dyn5
    std::vector<RunResult *> runs{&r.baseline, &r.mcdBaseline};
    for (ControllerLeg &l : r.legs)
        runs.push_back(&l.run);
    double x = 1.0;
    for (RunResult *run : runs) {
        run->execTime = static_cast<Tick>(217434567 * x);
        run->committed = static_cast<std::uint64_t>(119000 * x);
        run->ipc = 0.6180339887498949 * x;
        run->totalEnergy = 1.4142135623730951e-3 * x;
        run->energyDelay = run->totalEnergy * 2.1743e-4 * x;
        for (int d = 0; d < numDomains; ++d) {
            DomainSummary &s = run->domains[d];
            s.cycles = 217000 + 1000 * d;
            s.energy = 3.3e-4 * x + d;
            s.avgFrequency = 8.7654321e8 - 1e7 * d;
            s.minFrequency = 2.5e8;
            s.maxFrequency = 1e9;
            s.reconfigurations = 17 + d;
        }
        x *= 1.0625;
    }
    return r;
}

void
expectEqual(const BenchmarkResults &a, const BenchmarkResults &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.globalFrequency, b.globalFrequency);
    ASSERT_EQ(a.legs.size(), b.legs.size());
    std::vector<const RunResult *> ra{&a.baseline, &a.mcdBaseline};
    std::vector<const RunResult *> rb{&b.baseline, &b.mcdBaseline};
    for (std::size_t i = 0; i < a.legs.size(); ++i) {
        EXPECT_EQ(a.legs[i].spec.name, b.legs[i].spec.name);
        EXPECT_EQ(a.legs[i].scheduleSize, b.legs[i].scheduleSize);
        ra.push_back(&a.legs[i].run);
        rb.push_back(&b.legs[i].run);
    }
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i]->execTime, rb[i]->execTime);
        EXPECT_EQ(ra[i]->committed, rb[i]->committed);
        EXPECT_EQ(ra[i]->ipc, rb[i]->ipc);
        EXPECT_EQ(ra[i]->totalEnergy, rb[i]->totalEnergy);
        EXPECT_EQ(ra[i]->energyDelay, rb[i]->energyDelay);
        for (int d = 0; d < numDomains; ++d) {
            EXPECT_EQ(ra[i]->domains[d].cycles, rb[i]->domains[d].cycles);
            EXPECT_EQ(ra[i]->domains[d].energy, rb[i]->domains[d].energy);
            EXPECT_EQ(ra[i]->domains[d].avgFrequency,
                      rb[i]->domains[d].avgFrequency);
            EXPECT_EQ(ra[i]->domains[d].minFrequency,
                      rb[i]->domains[d].minFrequency);
            EXPECT_EQ(ra[i]->domains[d].maxFrequency,
                      rb[i]->domains[d].maxFrequency);
            EXPECT_EQ(ra[i]->domains[d].reconfigurations,
                      rb[i]->domains[d].reconfigurations);
        }
    }
}

TEST(ExperimentCache, WriteReadRoundTripInMemory)
{
    BenchmarkResults r = synthetic();
    std::stringstream ss;
    expcache::write(ss, r);
    auto back = expcache::read(ss, "synthetic");
    ASSERT_TRUE(back.has_value());
    expectEqual(r, *back);
}

TEST(ExperimentCache, WriteReadRoundTripThroughTempDir)
{
    fs::path dir = fs::temp_directory_path() / "mcd-cacheio-test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::path file = dir / "synthetic.txt";

    BenchmarkResults r = synthetic();
    {
        std::ofstream out(file);
        expcache::write(out, r);
    }
    std::ifstream in(file);
    auto back = expcache::read(in, "synthetic");
    ASSERT_TRUE(back.has_value());
    expectEqual(r, *back);
    fs::remove_all(dir);
}

TEST(ExperimentCache, RejectsVersionMismatch)
{
    std::stringstream ss;
    expcache::write(ss, synthetic());
    std::string text = ss.str();
    // Bump the version header and nothing else.
    std::string ver = expcache::version;
    std::string bumped = text;
    bumped.replace(bumped.find(ver), ver.size(), "mcd-cache-v0");
    std::istringstream in(bumped);
    EXPECT_FALSE(expcache::read(in, "synthetic").has_value());
}

TEST(ExperimentCache, RejectsTruncation)
{
    std::stringstream ss;
    expcache::write(ss, synthetic());
    std::string text = ss.str();
    // Any prefix that loses content must be rejected, from the empty
    // file to one cut inside the trailing sentinel. (Only trailing
    // whitespace may be dropped harmlessly.)
    for (std::size_t len : {std::size_t{0}, text.size() / 4,
                            text.size() / 2, text.size() - 2}) {
        std::istringstream in(text.substr(0, len));
        EXPECT_FALSE(expcache::read(in, "synthetic").has_value())
            << "accepted truncated prefix of " << len << " bytes";
    }
}

TEST(ExperimentCache, RejectsGarbage)
{
    std::istringstream in("not a cache file at all\n1 2 3\n");
    EXPECT_FALSE(expcache::read(in, "x").has_value());
}

TEST(ExperimentCache, RejectsChecksumMismatch)
{
    std::stringstream ss;
    expcache::write(ss, synthetic());
    std::string text = ss.str();
    // Flip one digit deep inside the payload. The record still parses
    // (same shape, different value), so only the trailing FNV-1a
    // checksum can catch it.
    std::size_t pos = text.find("217000");
    ASSERT_NE(pos, std::string::npos);
    std::string flipped = text;
    flipped[pos] = '9';
    std::istringstream in(flipped);
    EXPECT_FALSE(expcache::read(in, "synthetic").has_value());
    // The unflipped original still reads fine.
    std::istringstream ok(text);
    EXPECT_TRUE(expcache::read(ok, "synthetic").has_value());
}

TEST(ExperimentCache, RejectsMissingEndSentinel)
{
    std::stringstream ss;
    expcache::write(ss, synthetic());
    std::string text = ss.str();
    std::size_t pos = text.rfind("end");
    ASSERT_NE(pos, std::string::npos);
    // Even with a checksum recomputed over the sentinel-free payload,
    // the reader must notice the missing terminator.
    std::string payload = text.substr(0, pos);
    std::ostringstream forged;
    forged << payload;     // no "end", no checksum line at all
    std::istringstream in(forged.str());
    EXPECT_FALSE(expcache::read(in, "synthetic").has_value());
}

TEST(ExperimentCache, CorruptFileIsQuarantinedAndRecomputed)
{
    fs::path dir = fs::temp_directory_path() / "mcd-cache-corrupt";
    fs::remove_all(dir);

    ExperimentConfig ec;
    ec.cacheDir = dir.string();
    ExperimentRunner runner(ec);

    // Plant a torn file — current version header, truncated payload —
    // exactly where the cache would look.
    fs::create_directories(dir);
    std::string path = runner.cachePath("mst");
    ASSERT_FALSE(path.empty());
    {
        std::ofstream out(path);
        out << expcache::version << "\n6.25e+08 42";     // truncated
    }

    // Must recompute (no crash) and quarantine the damaged bytes.
    BenchmarkResults fresh = runner.runBenchmark("mst");
    EXPECT_GT(fresh.baseline.committed, 0u);
    EXPECT_EQ(runner.cacheQuarantines(), 1u);
    EXPECT_TRUE(fs::exists(path + ".corrupt"));

    // The recomputed row was republished; a fresh runner loads it.
    ExperimentRunner again(ec);
    BenchmarkResults cached = again.runBenchmark("mst");
    expectEqual(fresh, cached);
    EXPECT_EQ(again.cacheQuarantines(), 0u);

    // Atomic publication: only the final .txt plus the quarantined
    // .corrupt may exist — no leftover temporaries.
    for (const auto &e : fs::directory_iterator(dir)) {
        bool expected = e.path().extension() == ".txt" ||
                        e.path().extension() == ".corrupt";
        EXPECT_TRUE(expected) << e.path();
    }
    fs::remove_all(dir);
}

TEST(ExperimentCache, StaleVersionRecomputesWithoutQuarantine)
{
    fs::path dir = fs::temp_directory_path() / "mcd-cache-stale";
    fs::remove_all(dir);

    ExperimentConfig ec;
    ec.cacheDir = dir.string();
    ExperimentRunner runner(ec);

    fs::create_directories(dir);
    std::string path = runner.cachePath("mst");
    ASSERT_FALSE(path.empty());
    {
        std::ofstream out(path);
        out << "mcd-cache-v0\nwhatever came before\n";
    }

    // Format churn is expected, not damage: silent recompute, no
    // quarantine file.
    BenchmarkResults fresh = runner.runBenchmark("mst");
    EXPECT_GT(fresh.baseline.committed, 0u);
    EXPECT_EQ(runner.cacheQuarantines(), 0u);
    EXPECT_FALSE(fs::exists(path + ".corrupt"));
    fs::remove_all(dir);
}

TEST(ExperimentCache, TelemetryBypassesAWarmCache)
{
    fs::path dir = fs::temp_directory_path() / "mcd-cache-telemetry";
    fs::remove_all(dir);

    ExperimentConfig ec;
    ec.cacheDir = dir.string();
    ec.legs = {LegSpec::scheduleReplay("dyn5", 0.05)};
    ExperimentRunner plain(ec);
    BenchmarkResults warm = plain.runBenchmark("adpcm");
    ASSERT_FALSE(warm.anyFailed());
    ASSERT_TRUE(fs::exists(plain.cachePath("adpcm")));

    // Telemetry is not part of the key, so the warm file sits exactly
    // where this runner looks; it must simulate anyway, because the
    // frequency trace lives only in telemetry the cache never carries.
    ExperimentConfig tc = ec;
    tc.telemetry.freqSeries = true;
    ExperimentRunner traced(tc);
    EXPECT_EQ(traced.cachePath("adpcm"), plain.cachePath("adpcm"));
    BenchmarkResults fresh = traced.runBenchmark("adpcm");
    ASSERT_FALSE(fresh.anyFailed());
    const RunResult &dyn = fresh.leg("dyn5");
    ASSERT_NE(dyn.telemetry, nullptr);
    EXPECT_FALSE(dyn.telemetry->sampler()
                     .frequencyTrace(Domain::FloatingPoint).empty());
    // Telemetry does not perturb the simulation.
    expectEqual(fresh, warm);
    fs::remove_all(dir);
}

TEST(ExperimentCache, KeyCoversEveryResultShapingOption)
{
    ExperimentConfig base;
    base.cacheDir = "/tmp/mcd-cache-keys";
    auto pathFor = [](const ExperimentConfig &ec) {
        return ExperimentRunner(ec).cachePath("adpcm");
    };
    const std::string plain = pathFor(base);
    EXPECT_EQ(fs::path(plain).filename().string().size(),
              std::string("adpcm-0123456789abcdef.txt").size());

    // Each of these shapes the stored rows, so each needs its own file.
    ExperimentConfig ec = base;
    ec.dvfsTimeScale = 0.20001;
    EXPECT_NE(pathFor(ec), plain);
    ec = base;
    ec.watchdogMaxTicks = 1000;
    EXPECT_NE(pathFor(ec), plain);
    ec = base;
    ec.watchdogNoProgressEdges += 1;
    EXPECT_NE(pathFor(ec), plain);
    ec = base;
    ec.online.attackThreshold = 0.0800001;
    EXPECT_NE(pathFor(ec), plain);

    // These never reach a stored row, so they share the clean file.
    ec = base;
    ec.telemetry.freqSeries = true;
    EXPECT_EQ(pathFor(ec), plain);
    ec = base;
    ec.telemetry.invariants = "default";
    EXPECT_EQ(pathFor(ec), plain);
    ec = base;
    ec.faults = std::make_shared<const fault::FaultPlan>(
        fault::FaultPlan::parse("cache:adpcm=corrupt"));
    EXPECT_EQ(pathFor(ec), plain);
}

} // namespace
} // namespace mcd
