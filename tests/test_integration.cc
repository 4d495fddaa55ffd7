/**
 * @file
 * Integration tests asserting the paper's headline result shapes
 * across a representative subset of benchmarks (the full matrix is
 * the bench harness's job; these keep CI fast).
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

namespace mcd {
namespace {

/** Three benchmarks spanning compute-, memory-, and FP-bound. */
const char *kBenches[] = {"adpcm", "mcf", "power"};

/**
 * A matrix with one schedule-replay leg at @p dilation on @p bench
 * (the offline tool's profile, shake, cluster and replay), returning
 * that leg's run.
 */
RunResult
replayLeg(const char *bench, double dilation, ExperimentConfig ec = {})
{
    ec.legs = {LegSpec::scheduleReplay("dyn", dilation)};
    BenchmarkResults r = ExperimentRunner(ec).runBenchmark(bench);
    EXPECT_FALSE(r.anyFailed()) << bench;
    return r.leg("dyn");
}

TEST(Integration, PaperOrderingAcrossKinds)
{
    double dynEdp = 0.0, globalEdp = 0.0, dyn1Edp = 0.0;
    for (const char *name : kBenches) {
        ExperimentConfig ec;
        ExperimentRunner runner(ec);
        BenchmarkResults r = runner.runBenchmark(name);
        dynEdp += r.edpImprovement(r.leg("dyn5"));
        dyn1Edp += r.edpImprovement(r.leg("dyn1"));
        globalEdp += r.edpImprovement(r.leg("global"));
    }
    dynEdp /= std::size(kBenches);
    dyn1Edp /= std::size(kBenches);
    globalEdp /= std::size(kBenches);

    // Figure 7's ordering: dyn-5% > dyn-1% > global, with dynamic
    // clearly positive and global small.
    EXPECT_GT(dynEdp, 0.05);
    EXPECT_GT(dynEdp, dyn1Edp);
    EXPECT_GT(dyn1Edp, globalEdp);
    EXPECT_LT(globalEdp, 0.06);
}

TEST(Integration, TransmetaInferiorToXScale)
{
    // Paper Section 4: the Transmeta model reconfigures less and
    // saves less energy than XScale at the same target.
    ExperimentConfig xs;
    ExperimentConfig tm;
    tm.model = DvfsKind::Transmeta;
    std::uint64_t rcXs = 0, rcTm = 0;
    for (const char *name : {"art", "gcc"}) {
        RunResult a = replayLeg(name, 0.05, xs);
        RunResult b = replayLeg(name, 0.05, tm);
        for (int d = 1; d < numDomains; ++d) {
            rcXs += a.domains[d].reconfigurations;
            rcTm += b.domains[d].reconfigurations;
        }
    }
    EXPECT_GT(rcXs, rcTm);
}

TEST(Integration, FpDomainRidesAtMinimumForIntegerCode)
{
    // Paper Section 4: the FP domain can be scaled to the lowest
    // frequency in many (integer) applications.
    RunResult dyn = replayLeg("bzip2", 0.05);
    EXPECT_NEAR(dyn.domains[domainIndex(Domain::FloatingPoint)]
                    .avgFrequency, 250e6, 30e6);
}

TEST(Integration, HighIpcCodeResistsScaling)
{
    // g721: balanced mix and IPC > 2; integer and load/store domains
    // must stay near full speed (paper Section 4).
    RunResult dyn = replayLeg("g721", 0.01);
    EXPECT_GT(dyn.domains[domainIndex(Domain::Integer)]
                  .avgFrequency, 900e6);
    EXPECT_GT(dyn.domains[domainIndex(Domain::LoadStore)]
                  .avgFrequency, 800e6);
}

TEST(Integration, MemoryBoundCodeScalesDeeply)
{
    // mcf: cache-miss slack lets both back-end compute domains scale
    // far down with little performance cost (paper's gcc/mcf story).
    RunResult dyn = replayLeg("mcf", 0.05);
    EXPECT_LT(dyn.domains[domainIndex(Domain::Integer)]
                  .avgFrequency, 900e6);
    EXPECT_NEAR(dyn.domains[domainIndex(Domain::FloatingPoint)]
                    .avgFrequency, 250e6, 30e6);
}

TEST(Integration, ArtFrequencyTraceTracksPhases)
{
    // Figure 8: art's FP domain changes frequency across program
    // phases under the XScale model.
    ExperimentConfig ec;
    ec.telemetry.freqSeries = true;
    RunResult dyn = replayLeg("art", 0.01, ec);
    ASSERT_NE(dyn.telemetry, nullptr);
    const auto &fpTrace =
        dyn.telemetry->sampler().frequencyTrace(Domain::FloatingPoint);
    EXPECT_GE(fpTrace.size(), 2u);
    Hertz lo = 1e18, hi = 0;
    for (const FreqTracePoint &pt : fpTrace) {
        lo = std::min(lo, pt.frequency);
        hi = std::max(hi, pt.frequency);
    }
    EXPECT_LT(lo, 500e6);
}

} // namespace
} // namespace mcd
