/**
 * @file
 * Ablation: sensitivity of the baseline-MCD synchronization cost to
 * the two circuit-level parameters of Section 2.2 -- the
 * synchronization window T_s (paper value: 30% of the fastest clock
 * period, from the Sjogren & Myers arbitration circuits) and the
 * per-edge clock jitter (paper value: sigma = 110 ps).
 *
 * This quantifies the design-choice discussion in DESIGN.md: how much
 * of the MCD penalty is inherent to independent clocks vs. an
 * artifact of the assumed synchronizer quality.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/processor.hh"

using namespace mcd;

namespace {

/** Benchmarks spanning sync-sensitivity extremes. */
const char *kBenches[] = {"adpcm", "g721", "health", "mcf"};

double
mcdDegradation(const Program &p, double sync_fraction,
               double jitter_ps, std::uint64_t seed)
{
    SimConfig base;
    base.clocking = ClockingStyle::SingleClock;
    base.jitterSigmaPs = jitter_ps;
    base.seed = seed;
    RunResult rb = McdProcessor(base, p).run();

    SimConfig mcd = base;
    mcd.clocking = ClockingStyle::Mcd;
    mcd.syncFraction = sync_fraction;
    RunResult rm = McdProcessor(mcd, p).run();
    return static_cast<double>(rm.execTime) /
        static_cast<double>(rb.execTime) - 1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::parseFigureArgs(argc, argv);
    ExperimentConfig ec = benchutil::configFromEnv();

    std::printf("Ablation: baseline-MCD performance cost vs "
                "synchronization window T_s\n(paper value: T_s = 30%% "
                "of the fastest period, jitter sigma = 110 ps)\n\n");
    {
        TextTable t;
        t.header({"benchmark", "Ts=10%", "Ts=30% (paper)", "Ts=50%",
                  "Ts=70%", "Ts=100%"});
        const double fractions[] = {0.1, 0.3, 0.5, 0.7, 1.0};
        for (const char *name : kBenches) {
            std::fprintf(stderr, "  Ts sweep: %s...\n", name);
            Program p = workloads::build(name, ec.scale);
            std::vector<std::string> cells{name};
            for (double f : fractions)
                cells.push_back(formatPercent(
                    mcdDegradation(p, f, defaultJitterSigmaPs,
                                   ec.seed)));
            t.row(std::move(cells));
        }
        std::fputs(t.render().c_str(), stdout);
    }

    std::printf("\nAblation: baseline-MCD performance cost vs clock "
                "jitter (T_s = 30%%)\n\n");
    {
        TextTable t;
        t.header({"benchmark", "no jitter", "sigma=110ps (paper)",
                  "sigma=220ps", "sigma=440ps"});
        const double sigmas[] = {0.0, 110.0, 220.0, 440.0};
        for (const char *name : kBenches) {
            std::fprintf(stderr, "  jitter sweep: %s...\n", name);
            Program p = workloads::build(name, ec.scale);
            std::vector<std::string> cells{name};
            for (double s : sigmas)
                cells.push_back(formatPercent(
                    mcdDegradation(p, 0.3, s, ec.seed)));
            t.row(std::move(cells));
        }
        std::fputs(t.render().c_str(), stdout);
    }

    std::printf("\nLarger synchronization windows monotonically "
                "increase the cost of the MCD clocking style;\nthe "
                "paper's 30%%/110 ps point keeps the average penalty "
                "small (Section 4: < 4%%).\n");
    return 0;
}
