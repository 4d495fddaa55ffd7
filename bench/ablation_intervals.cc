/**
 * @file
 * Ablation: sensitivity of the offline tool to its analysis interval
 * length. The paper uses 50K-cycle intervals ("the maximum for which
 * the DAG will fit in cache on our simulation servers"); shorter
 * intervals track phases more finely but leave less dilation budget
 * per reconfiguration, longer ones average phases away.
 */

#include <cstdio>

#include "analysis/analyzer.hh"
#include "bench_util.hh"
#include "core/processor.hh"

using namespace mcd;

namespace {

struct Outcome
{
    double degradation = 0.0;
    double energySavings = 0.0;
    std::uint64_t reconfigs = 0;
};

Outcome
runWithInterval(const Program &p, Tick interval, double dilation,
                std::uint64_t seed)
{
    SimConfig baseCfg;
    baseCfg.clocking = ClockingStyle::SingleClock;
    baseCfg.seed = seed;
    RunResult base = McdProcessor(baseCfg, p).run();

    SimConfig profCfg;
    profCfg.clocking = ClockingStyle::Mcd;
    profCfg.collectTrace = true;
    profCfg.seed = seed;
    McdProcessor prof(profCfg, p);
    prof.run();

    AnalyzerConfig ac =
        OfflineAnalyzer::configFor(dilation, DvfsKind::XScale, 0.2);
    ac.graph.intervalLength = interval;
    OfflineAnalyzer analyzer(ac);
    AnalysisResult analysis = analyzer.analyze(prof.trace().trace());

    SimConfig dynCfg = profCfg;
    dynCfg.collectTrace = false;
    dynCfg.dvfs = DvfsKind::XScale;
    dynCfg.dvfsTimeScale = 0.2;
    dynCfg.schedule = &analysis.schedule;
    RunResult r = McdProcessor(dynCfg, p).run();

    Outcome o;
    o.degradation = static_cast<double>(r.execTime) /
        static_cast<double>(base.execTime) - 1.0;
    o.energySavings = 1.0 - r.totalEnergy / base.totalEnergy;
    for (int d = 1; d < numDomains; ++d)
        o.reconfigs += r.domains[d].reconfigurations;
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::parseFigureArgs(argc, argv);
    ExperimentConfig ec = benchutil::configFromEnv();
    const char *benches[] = {"art", "gcc", "power"};
    const Tick intervals[] = {10'000'000, 25'000'000, 50'000'000,
                              100'000'000};

    std::printf("Ablation: dynamic-5%% outcome vs analysis interval "
                "length (paper: 50K cycles = 50 us)\n\n");
    TextTable t;
    t.header({"benchmark", "interval", "perf cost", "energy saved",
              "reconfigs"});
    for (const char *name : benches) {
        Program p = workloads::build(name, ec.scale);
        for (Tick iv : intervals) {
            std::fprintf(stderr, "  %s @ %llu us...\n", name,
                         static_cast<unsigned long long>(iv / 1000000));
            Outcome o = runWithInterval(p, iv, ec.dilationHigh, ec.seed);
            char ivs[32];
            std::snprintf(ivs, sizeof(ivs), "%lluK cycles",
                          static_cast<unsigned long long>(iv / 1000000));
            t.row({name, ivs, formatPercent(o.degradation),
                   formatPercent(o.energySavings),
                   std::to_string(o.reconfigs)});
        }
        t.separator();
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\nThe paper's 50K-cycle choice balances phase "
                "tracking against per-interval dilation budget.\n");
    return 0;
}
