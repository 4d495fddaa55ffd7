/**
 * @file
 * Determinism tests for the parallel experiment engine: a matrix run
 * fanned across worker threads must be bit-identical — struct fields
 * and cache-file bytes — to the strictly serial run.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "obs/host_prof.hh"

namespace mcd {
namespace {

namespace fs = std::filesystem;

void
expectRunsIdentical(const RunResult &a, const RunResult &b,
                    const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.ipc, b.ipc);                    // exact, not near
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.energyDelay, b.energyDelay);
    for (int d = 0; d < numDomains; ++d) {
        EXPECT_EQ(a.domains[d].cycles, b.domains[d].cycles);
        EXPECT_EQ(a.domains[d].energy, b.domains[d].energy);
        EXPECT_EQ(a.domains[d].avgFrequency, b.domains[d].avgFrequency);
        EXPECT_EQ(a.domains[d].minFrequency, b.domains[d].minFrequency);
        EXPECT_EQ(a.domains[d].maxFrequency, b.domains[d].maxFrequency);
        EXPECT_EQ(a.domains[d].reconfigurations,
                  b.domains[d].reconfigurations);
    }
}

/** Expect two matrix runs over the same benchmarks to match row for
 *  row: every leg, schedule size and global pick. */
void
expectMatricesIdentical(const std::vector<BenchmarkResults> &serial,
                        const std::vector<BenchmarkResults> &par,
                        const std::vector<std::string> &names)
{
    ASSERT_EQ(serial.size(), names.size());
    ASSERT_EQ(par.size(), names.size());

    for (std::size_t i = 0; i < names.size(); ++i) {
        SCOPED_TRACE(names[i]);
        EXPECT_EQ(serial[i].name, names[i]);    // workload order kept
        EXPECT_EQ(par[i].name, names[i]);
        expectRunsIdentical(serial[i].baseline, par[i].baseline,
                            "baseline");
        expectRunsIdentical(serial[i].mcdBaseline, par[i].mcdBaseline,
                            "mcdBaseline");
        ASSERT_EQ(serial[i].legs.size(), par[i].legs.size());
        for (std::size_t l = 0; l < serial[i].legs.size(); ++l) {
            EXPECT_EQ(serial[i].legs[l].spec.name,
                      par[i].legs[l].spec.name);
            expectRunsIdentical(serial[i].legs[l].run,
                                par[i].legs[l].run,
                                serial[i].legs[l].spec.name.c_str());
            EXPECT_EQ(serial[i].legs[l].scheduleSize,
                      par[i].legs[l].scheduleSize);
        }
        EXPECT_EQ(serial[i].globalFrequency, par[i].globalFrequency);
    }
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(ParallelMatrix, ParallelRunBitIdenticalToSerial)
{
    const std::vector<std::string> names{"adpcm", "mst"};

    fs::path serialDir = fs::temp_directory_path() / "mcd-par-serial";
    fs::path parDir = fs::temp_directory_path() / "mcd-par-jobs4";
    fs::remove_all(serialDir);
    fs::remove_all(parDir);

    ExperimentConfig ecSerial;
    ecSerial.cacheDir = serialDir.string();
    auto serial = runMatrix(ecSerial, names, /*jobs=*/1);

    ExperimentConfig ecPar = ecSerial;
    ecPar.cacheDir = parDir.string();
    auto par = runMatrix(ecPar, names, /*jobs=*/4);

    expectMatricesIdentical(serial, par, names);

    // The cache files written by the two runs must match byte for
    // byte, and no temporary files may be left behind.
    ExperimentRunner keyOracle(ecSerial);
    for (const std::string &n : names) {
        SCOPED_TRACE(n);
        fs::path rel =
            fs::path(keyOracle.cachePath(n)).filename();
        std::string a = slurp(serialDir / rel);
        std::string b = slurp(parDir / rel);
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b);
    }
    for (const fs::path &dir : {serialDir, parDir}) {
        for (const auto &e : fs::directory_iterator(dir))
            EXPECT_EQ(e.path().extension(), ".txt") << e.path();
    }

    fs::remove_all(serialDir);
    fs::remove_all(parDir);
}

TEST(ParallelMatrix, MoreBenchmarksThanWorkersMatchSerial)
{
    // With more benchmarks than workers, stages of every benchmark
    // share the queue. The rows must still match the serial run, and
    // each shake must run in its profiling leg's task: on that leg's
    // lane, after its simulate slice closes.
    const std::vector<std::string> names{"adpcm", "mst", "g721"};
    ExperimentConfig ec;                // no cache: every leg runs
    auto serial = runMatrix(ec, names, /*jobs=*/1);

    const fs::path prof = fs::temp_directory_path() /
        ("mcd-par-nested-" + std::to_string(::getpid()) + ".json");
    ::setenv("MCD_PROF_OUT", prof.string().c_str(), 1);
    auto par = runMatrix(ec, names, /*jobs=*/2);
    ::unsetenv("MCD_PROF_OUT");
    const auto snap = obs::HostProfiler::instance().snapshot();
    obs::HostProfiler::instance().reset(false);
    fs::remove(prof);

    expectMatricesIdentical(serial, par, names);

    for (const std::string &n : names) {
        SCOPED_TRACE(n);
        const obs::HostProfiler::Slice *sim = nullptr;
        const obs::HostProfiler::Slice *shake = nullptr;
        for (const auto &sl : snap.slices) {
            if (sl.kind == "simulate" && sl.detail == n + "/mcdBaseline")
                sim = &sl;
            if (sl.kind == "analyze" && sl.detail == n + "/shake")
                shake = &sl;
        }
        ASSERT_NE(sim, nullptr);
        ASSERT_NE(shake, nullptr);
        EXPECT_EQ(shake->lane, sim->lane);
        EXPECT_GE(shake->startNs, sim->startNs + sim->durNs);
    }
}

TEST(ParallelMatrix, ConcurrentGlobalLegsMatchSerial)
{
    // Two global legs, each reading its own replay leg, can run at
    // once. The rows must match at every job count, and the row's
    // global frequency is the pick of the last global leg (g5).
    ExperimentConfig ec;
    ec.legs = legsFromSpec("dyn1=replay:0.01|dyn5=replay:0.05|"
                           "g1=global:dyn1|g5=global:dyn5|"
                           "online=ctrl:online-queue");
    const std::vector<std::string> names{"adpcm"};
    auto serial = runMatrix(ec, names, /*jobs=*/1);
    for (int jobs : {2, 8}) {
        SCOPED_TRACE(jobs);
        expectMatricesIdentical(serial, runMatrix(ec, names, jobs), names);
    }

    ExperimentConfig onlyG5 = ec;
    onlyG5.legs = legsFromSpec("dyn5=replay:0.05|g5=global:dyn5");
    const Hertz g5Pick = runMatrix(onlyG5, names, 1)[0].globalFrequency;
    EXPECT_GT(g5Pick, 0.0);
    EXPECT_EQ(serial[0].globalFrequency, g5Pick);
}

TEST(ParallelMatrix, TaskGraphBenchmarkMatchesSerialBenchmark)
{
    // One benchmark through the leg-level task graph (shared pool)
    // vs. the plain serial entry point, no caching.
    ExperimentConfig ec;
    ExperimentRunner runner(ec);
    BenchmarkResults serial = runner.runBenchmark("adpcm");

    ThreadPool pool(3);
    BenchmarkResults par = runner.runBenchmark("adpcm", pool);

    expectRunsIdentical(serial.baseline, par.baseline, "baseline");
    expectRunsIdentical(serial.mcdBaseline, par.mcdBaseline,
                        "mcdBaseline");
    ASSERT_EQ(serial.legs.size(), par.legs.size());
    for (std::size_t l = 0; l < serial.legs.size(); ++l) {
        expectRunsIdentical(serial.legs[l].run, par.legs[l].run,
                            serial.legs[l].spec.name.c_str());
        EXPECT_EQ(serial.legs[l].scheduleSize, par.legs[l].scheduleSize);
    }
    EXPECT_EQ(serial.globalFrequency, par.globalFrequency);
}

} // namespace
} // namespace mcd
