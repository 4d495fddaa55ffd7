/**
 * @file
 * Reproduces paper Figure 8: the frequency-vs-time traces chosen by
 * the offline tool for the `art` benchmark (dynamic-1%
 * configuration), under the Transmeta and XScale models.
 *
 * Paper shape: under XScale the tool makes more frequency changes
 * over a wider range (art's FP domain in particular drops to the
 * floor during non-FP phases); the Transmeta model's re-lock cost
 * suppresses short-term reconfiguration.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace mcd;

namespace {

void
printTrace(const char *model_name, const RunResult &r)
{
    std::printf("art (%s) -- frequency changes per domain\n",
                model_name);
    for (Domain d : scalableDomains) {
        const auto &tr = r.telemetry->sampler().frequencyTrace(d);
        std::printf("  %-3s t=0.000ms 1000 MHz", domainShortName(d));
        // Decimate the smooth XScale ramps: print a point when the
        // frequency moved >= 25 MHz since the last printed one, plus
        // the final point of every ramp.
        Hertz lastPrinted = 1e9;
        for (std::size_t i = 0; i < tr.size(); ++i) {
            const FreqTracePoint &p = tr[i];
            bool rampEnd = i + 1 == tr.size() ||
                tr[i + 1].when > p.when + fromMicroseconds(5.0);
            if (std::abs(p.frequency - lastPrinted) < 25e6 && !rampEnd)
                continue;
            std::printf("; t=%.3fms %.0f MHz",
                        toSeconds(p.when) * 1e3, p.frequency / 1e6);
            lastPrinted = p.frequency;
        }
        std::printf("\n");
        std::printf("      avg %.0f MHz, range [%.0f, %.0f] MHz, "
                    "%llu reconfigurations\n",
                    r.domains[domainIndex(d)].avgFrequency / 1e6,
                    r.domains[domainIndex(d)].minFrequency / 1e6,
                    r.domains[domainIndex(d)].maxFrequency / 1e6,
                    static_cast<unsigned long long>(
                        r.domains[domainIndex(d)].reconfigurations));
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::parseFigureArgs(argc, argv);
    std::printf("Figure 8: Frequency changes for art generated by the "
                "off-line algorithm (dynamic-1%%)\n\n");

    std::vector<BenchmarkResults> rows;
    std::uint64_t changesTm = 0, changesXs = 0;
    for (DvfsKind model : {DvfsKind::Transmeta, DvfsKind::XScale}) {
        ExperimentConfig ec = benchutil::configFromEnv(model);
        if (config::RunSpec::resolve().isDefault("scale"))
            ec.scale = 3;   // longer run: more phase alternations
        ec.legs = {LegSpec::scheduleReplay("dyn1", ec.dilationLow)};
        // The trace lives only in the run's telemetry, which cached
        // rows never carry: the leg always simulates, so there is no
        // cache to read or fill.
        ec.telemetry.freqSeries = true;
        ec.cacheDir.clear();
        BenchmarkResults r = benchutil::orUsageError([&] {
            return runMatrix(ec, {"art"},
                             config::RunSpec::resolve().jobs())[0];
        });
        const RunResult &dyn = r.leg("dyn1");
        if (dyn.failed()) {
            std::printf("art (%s) -- failed\n\n", dvfsKindName(model));
        } else {
            printTrace(dvfsKindName(model), dyn);
        }
        std::uint64_t changes = 0;
        for (int d = 1; d < numDomains; ++d)
            changes += dyn.domains[d].reconfigurations;
        (model == DvfsKind::Transmeta ? changesTm : changesXs) = changes;
        rows.push_back(std::move(r));
    }

    std::printf("Paper shape -- XScale makes at least as many frequency "
                "changes as Transmeta: %s (Transmeta %llu vs XScale "
                "%llu)\n",
                changesXs >= changesTm ? "REPRODUCED" : "NOT REPRODUCED",
                static_cast<unsigned long long>(changesTm),
                static_cast<unsigned long long>(changesXs));
    return std::max(benchutil::finish(rows),
                    changesXs >= changesTm ? 0 : 1);
}
