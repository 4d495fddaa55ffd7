/**
 * @file
 * Validation harness for sampled simulation: the error-vs-speed
 * trade-off of the SMARTS-style interval sampler across the full
 * 16-benchmark suite.
 *
 * For every benchmark the harness runs the full-detail MCD timing
 * simulation once as the reference, then re-runs it at a sweep of
 * sampling operating points (from 50% detailed down to 2%), reporting
 * the relative error of sampled execTime / totalEnergy against the
 * reference and the wall-clock speedup of the sampled kernel. The
 * final table checks every benchmark at the default operating point
 * against SamplingParams::tolerance — the error knob's stated
 * accuracy contract — and the process exits non-zero if any
 * benchmark lands outside it, so CI can gate on the contract.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/processor.hh"

using namespace mcd;

namespace {

struct TimedRun
{
    RunResult result;
    double wallSeconds = 0.0;
};

TimedRun
timedRun(const Program &p, const ExperimentConfig &ec,
         const std::optional<SamplingParams> &sampling)
{
    SimConfig cfg;
    cfg.clocking = ClockingStyle::Mcd;
    cfg.seed = ec.seed;
    cfg.sampling = sampling;
    auto t0 = std::chrono::steady_clock::now();
    McdProcessor proc(cfg, p);
    TimedRun out{proc.run(), 0.0};
    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return out;
}

double
relErr(double sampled, double full)
{
    return full != 0.0 ? std::fabs(sampled - full) / full : 0.0;
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::parseFigureArgs(argc, argv);
    ExperimentConfig ec = benchutil::configFromEnv();
    std::vector<std::string> names = benchutil::benchmarkNamesFromEnv();

    // Operating points, most detailed first. The label is the detailed
    // fraction d / (d + ff); the window size stays at the default 1K
    // commits (250 warm-up) so the sweep varies only the fraction.
    struct Point
    {
        const char *label;
        SamplingParams params;
    };
    const Point points[] = {
        {"50%", {1000, 1000, 250}},
        {"20%", {1000, 4000, 250}},
        {"10%", {1000, 9000, 250}},
        {"5%", {1000, 19000, 250}},
        {"2%", {1000, 49000, 250}},
    };
    constexpr int numPoints = 5;
    const SamplingParams defaults{};    // contract-checked point

    std::printf("Ablation: sampled-simulation error vs speed\n"
                "(per benchmark: full-detail reference, then sampled "
                "at decreasing\ndetailed fractions; errors are "
                "relative to the full-detail run)\n\n");

    double sumTimeErr[numPoints] = {};
    double sumEnergyErr[numPoints] = {};
    double maxTimeErr[numPoints] = {};
    double maxEnergyErr[numPoints] = {};
    double fullWall = 0.0;
    double sampledWall[numPoints] = {};

    bool contractOk = true;
    TextTable contract;
    contract.header({"benchmark", "windows", "ff insts", "time err",
                     "energy err", "cv(time)", "speedup", "verdict"});

    for (const std::string &name : names) {
        std::fprintf(stderr, "  sampling sweep: %s...\n", name.c_str());
        Program p = workloads::build(name, ec.scale);
        TimedRun full = timedRun(p, ec, std::nullopt);
        fullWall += full.wallSeconds;

        for (int i = 0; i < numPoints; ++i) {
            TimedRun s = timedRun(p, ec, points[i].params);
            sampledWall[i] += s.wallSeconds;
            double te = relErr(static_cast<double>(s.result.execTime),
                               static_cast<double>(full.result.execTime));
            double ee =
                relErr(s.result.totalEnergy, full.result.totalEnergy);
            sumTimeErr[i] += te;
            sumEnergyErr[i] += ee;
            maxTimeErr[i] = std::max(maxTimeErr[i], te);
            maxEnergyErr[i] = std::max(maxEnergyErr[i], ee);
        }

        // Contract row: the default operating point against its
        // stated tolerance.
        TimedRun d = timedRun(p, ec, defaults);
        double te = relErr(static_cast<double>(d.result.execTime),
                           static_cast<double>(full.result.execTime));
        double ee = relErr(d.result.totalEnergy, full.result.totalEnergy);
        bool ok = te <= defaults.tolerance && ee <= defaults.tolerance;
        contractOk = contractOk && ok;
        const SamplingSummary &ss = *d.result.sampling;
        contract.row(
            {name, std::to_string(ss.windows),
             std::to_string(ss.ffExecuted), formatPercent(te),
             formatPercent(ee), fmt("%.3f", ss.timePerInstCv),
             fmt("%.1fx", full.wallSeconds /
                              std::max(d.wallSeconds, 1e-9)),
             ok ? "ok" : "EXCEEDS"});
    }

    {
        TextTable t;
        t.header({"detailed fraction", "avg time err", "max time err",
                  "avg energy err", "max energy err", "speedup"});
        double n = static_cast<double>(names.size());
        for (int i = 0; i < numPoints; ++i) {
            t.row({points[i].label, formatPercent(sumTimeErr[i] / n),
                   formatPercent(maxTimeErr[i]),
                   formatPercent(sumEnergyErr[i] / n),
                   formatPercent(maxEnergyErr[i]),
                   fmt("%.1fx", fullWall /
                                    std::max(sampledWall[i], 1e-9))});
        }
        std::fputs(t.render().c_str(), stdout);
    }

    std::printf("\nAccuracy contract at the default operating point "
                "(%s, tolerance %.0f%%):\n\n",
                defaults.spec().c_str(), defaults.tolerance * 100.0);
    std::fputs(contract.render().c_str(), stdout);

    if (!contractOk) {
        std::printf("\nFAIL: at least one benchmark exceeds the "
                    "sampling tolerance.\n");
        return 1;
    }
    std::printf("\nAll %zu benchmarks within the stated tolerance; "
                "smaller detailed\nfractions buy speed at the cost of "
                "error, bounded by the sweep above.\n",
                names.size());
    return 0;
}
