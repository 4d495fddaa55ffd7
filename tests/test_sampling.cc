/**
 * @file
 * Tests for sampled simulation: the MCD_SAMPLING spec grammar, the
 * accuracy contract of the default operating point on adpcm and mst,
 * byte-identity of full-detail results against the golden fixture,
 * determinism of sampled matrix runs across worker counts, and the
 * cache-bypass rule for sampled results.
 */

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/processor.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

namespace fs = std::filesystem;

TEST(SamplingParams, SpecRoundTrips)
{
    SamplingParams p;
    p.detailedInsts = 1234;
    p.ffInsts = 5678;
    p.warmupInsts = 99;
    p.tolerance = 0.25;
    SamplingParams q = SamplingParams::fromSpec(p.spec());
    EXPECT_EQ(q.detailedInsts, p.detailedInsts);
    EXPECT_EQ(q.ffInsts, p.ffInsts);
    EXPECT_EQ(q.warmupInsts, p.warmupInsts);
    EXPECT_DOUBLE_EQ(q.tolerance, p.tolerance);
    EXPECT_EQ(q.spec(), p.spec());

    // The tolerance survives the round trip to the last bit, not to
    // six significant digits.
    p.tolerance = 0.1234567;
    EXPECT_EQ(SamplingParams::fromSpec(p.spec()).tolerance, 0.1234567);

    // Defaults apply for omitted keys.
    SamplingParams d = SamplingParams::fromSpec("detailed=1000,ff=9000");
    EXPECT_EQ(d.warmupInsts, SamplingParams{}.warmupInsts);
    EXPECT_DOUBLE_EQ(d.tolerance, SamplingParams{}.tolerance);
}

TEST(SamplingParams, FromSpecRejectsMalformed)
{
    EXPECT_THROW(SamplingParams::fromSpec(""), FatalError);
    EXPECT_THROW(SamplingParams::fromSpec("detailed=1000"), FatalError);
    EXPECT_THROW(SamplingParams::fromSpec("detailed=x,ff=9000"),
                 FatalError);
    EXPECT_THROW(SamplingParams::fromSpec("bogus=1,detailed=1,ff=2"),
                 FatalError);
    EXPECT_THROW(SamplingParams::fromSpec("detailed=,ff=9000"),
                 FatalError);
    EXPECT_THROW(SamplingParams::fromSpec("detailed=1000,ff=9000,tol=z"),
                 FatalError);
}

TEST(SamplingParams, ValidateRejectsOutOfRange)
{
    SamplingParams p;
    p.detailedInsts = 0;
    EXPECT_THROW(p.validate(), FatalError);

    p = SamplingParams{};
    p.ffInsts = 0;
    EXPECT_THROW(p.validate(), FatalError);

    p = SamplingParams{};
    p.warmupInsts = p.detailedInsts;    // window needs a measured tail
    EXPECT_THROW(p.validate(), FatalError);

    p = SamplingParams{};
    p.tolerance = 0.0;
    EXPECT_THROW(p.validate(), FatalError);
    p.tolerance = 1.5;
    EXPECT_THROW(p.validate(), FatalError);
}

/**
 * The accuracy contract: at the default operating point, sampled
 * execTime and totalEnergy land within SamplingParams::tolerance of
 * the full-detail run, and the sampled stream covers the same
 * instructions.
 */
TEST(Sampling, WithinToleranceOnAdpcmAndMst)
{
    for (const char *name : {"adpcm", "mst"}) {
        SCOPED_TRACE(name);
        Program p = workloads::build(name, 1);

        SimConfig full;
        full.clocking = ClockingStyle::Mcd;
        RunResult rf = McdProcessor(full, p).run();
        ASSERT_FALSE(rf.sampling.has_value());

        SimConfig sampled = full;
        sampled.sampling = SamplingParams{};
        RunResult rs = McdProcessor(sampled, p).run();
        ASSERT_TRUE(rs.sampling.has_value());

        const SamplingSummary &ss = *rs.sampling;
        EXPECT_GT(ss.windows, 1u);
        EXPECT_GT(ss.ffExecuted, 0u);
        EXPECT_GT(ss.detailedCommitted, 0u);
        EXPECT_EQ(ss.detailedCommitted + ss.ffExecuted, rs.committed);
        // Same dynamic instruction stream, split between the two modes.
        EXPECT_NEAR(static_cast<double>(rs.committed),
                    static_cast<double>(rf.committed), 2.0);
        // Fast-forward dominates the stream at a 10% detailed fraction.
        EXPECT_GT(ss.ffExecuted, rs.committed / 2);

        double tol = sampled.sampling->tolerance;
        double timeErr =
            std::fabs(static_cast<double>(rs.execTime) -
                      static_cast<double>(rf.execTime)) /
            static_cast<double>(rf.execTime);
        double energyErr = std::fabs(rs.totalEnergy - rf.totalEnergy) /
            rf.totalEnergy;
        EXPECT_LE(timeErr, tol) << "execTime outside tolerance";
        EXPECT_LE(energyErr, tol) << "totalEnergy outside tolerance";
    }
}

/**
 * Full-detail byte-identity: with sampling off, the adpcm+mst matrix
 * at jobs=1 reproduces the committed golden fixture byte for byte —
 * the memory-layout overhaul (and the sampling hooks) must not move
 * a single result bit of an unsampled run.
 */
TEST(Sampling, FullDetailMatchesGoldenFixture)
{
    fs::path dir = fs::temp_directory_path() / "mcd-sampling-golden";
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::path results = dir / "results.json";

    // The fixture is produced with full telemetry (the CI golden job
    // sets MCD_STATS_OUT / MCD_TRACE_OUT and MCD_BENCHMARKS); mirror
    // that — including the benchmarks option's "env" provenance in the
    // emitted effectiveConfig block — and make sure no stray sampling
    // knob leaks in.
    ::unsetenv("MCD_SAMPLING");
    ::setenv("MCD_BENCHMARKS", "adpcm,mst", 1);
    ::setenv("MCD_RESULTS_JSON", (dir / "results.json").c_str(), 1);
    ::setenv("MCD_STATS_OUT", (dir / "stats.json").c_str(), 1);
    ::setenv("MCD_TRACE_OUT", (dir / "trace.json").c_str(), 1);

    ExperimentConfig ec;    // empty cacheDir: caching disabled
    runMatrix(ec, {"adpcm", "mst"}, 1);

    ::unsetenv("MCD_BENCHMARKS");
    ::unsetenv("MCD_RESULTS_JSON");
    ::unsetenv("MCD_STATS_OUT");
    ::unsetenv("MCD_TRACE_OUT");

    auto slurp = [](const fs::path &p) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    std::string got = slurp(results);
    ASSERT_FALSE(got.empty());
    std::string want = slurp(fs::path(MCD_SOURCE_DIR) / "tests" /
                             "golden" / "results_adpcm_mst.json");
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(got, want) << "full-detail results drifted from the "
                            "golden fixture";
    fs::remove_all(dir);
}

/** Sampled matrix runs are deterministic across worker counts. */
TEST(Sampling, SampledMatrixDeterministicAcrossJobs)
{
    const std::vector<std::string> names{"adpcm", "mst"};
    ExperimentConfig ec;    // empty cacheDir: caching disabled
    ec.sampling = SamplingParams{};

    auto serial = runMatrix(ec, names, 1);
    auto par = runMatrix(ec, names, 4);
    ASSERT_EQ(serial.size(), par.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(names[i]);
        // mcdBaseline is the profiling leg and always runs full
        // detail (sampling is incompatible with trace collection);
        // the single-clock baseline and the dynamic legs sample.
        const RunResult &a = serial[i].baseline;
        const RunResult &b = par[i].baseline;
        EXPECT_EQ(a.execTime, b.execTime);
        EXPECT_EQ(a.committed, b.committed);
        EXPECT_EQ(a.totalEnergy, b.totalEnergy);
        ASSERT_TRUE(a.sampling && b.sampling);
        EXPECT_EQ(a.sampling->windows, b.sampling->windows);
        EXPECT_EQ(a.sampling->ffExecuted, b.sampling->ffExecuted);
        EXPECT_EQ(a.sampling->estFfTimePs, b.sampling->estFfTimePs);
        EXPECT_EQ(a.sampling->estFfEnergy, b.sampling->estFfEnergy);
        EXPECT_EQ(serial[i].leg("dyn5").execTime,
                  par[i].leg("dyn5").execTime);
        EXPECT_EQ(serial[i].leg("dyn5").totalEnergy,
                  par[i].leg("dyn5").totalEnergy);
    }
}

/**
 * Sampled results never enter the on-disk cache, and a sampled run
 * never serves a cached full-detail row (or vice versa): estimates
 * must not masquerade as measurements.
 */
TEST(Sampling, SampledRunsBypassCache)
{
    fs::path dir = fs::temp_directory_path() / "mcd-sampling-cache";
    fs::remove_all(dir);

    ExperimentConfig ec;
    ec.cacheDir = dir.string();
    ec.sampling = SamplingParams{};
    ExperimentRunner sampledRunner(ec);
    BenchmarkResults sampled = sampledRunner.runBenchmark("mst");
    // The profiling leg stays full detail; the baseline leg samples.
    ASSERT_FALSE(sampled.mcdBaseline.sampling.has_value());
    ASSERT_TRUE(sampled.baseline.sampling.has_value());
    ASSERT_TRUE(sampled.leg("dyn5").sampling.has_value());

    // Nothing was stored for the sampled row.
    std::size_t files = 0;
    if (fs::exists(dir))
        for (const auto &e : fs::directory_iterator(dir))
            files += e.is_regular_file();
    EXPECT_EQ(files, 0u);

    // A full-detail run with the same cache dir populates it...
    ExperimentConfig full = ec;
    full.sampling.reset();
    ExperimentRunner fullRunner(full);
    BenchmarkResults fd = fullRunner.runBenchmark("mst");
    EXPECT_FALSE(fd.baseline.sampling.has_value());
    files = 0;
    for (const auto &e : fs::directory_iterator(dir))
        files += e.is_regular_file();
    EXPECT_GT(files, 0u);

    // ...and a sampled re-run with a warm cache still runs sampled
    // instead of returning the cached full-detail row.
    ExperimentRunner again(ec);
    BenchmarkResults s2 = again.runBenchmark("mst");
    ASSERT_TRUE(s2.baseline.sampling.has_value());
    EXPECT_EQ(s2.baseline.execTime, sampled.baseline.execTime);
    fs::remove_all(dir);
}

} // namespace
} // namespace mcd
