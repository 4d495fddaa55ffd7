/**
 * @file
 * Reproduces paper Figure 8: the frequency-vs-time traces chosen by
 * the offline tool for the `art` benchmark (dynamic-1%
 * configuration), under the Transmeta and XScale models. The
 * benchmarks option names one other benchmark to trace instead.
 *
 * Paper shape: under XScale the tool makes more frequency changes
 * over a wider range (art's FP domain in particular drops to the
 * floor during non-FP phases); the Transmeta model's re-lock cost
 * suppresses short-term reconfiguration.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"

using namespace mcd;

namespace {

void
printTrace(const std::string &bench, const char *model_name,
           const RunResult &r)
{
    std::printf("%s (%s) -- frequency changes per domain\n",
                bench.c_str(), model_name);
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
    // Resolve the benchmark and both models' configurations before any
    // output, so a usage error (exit 2) prints no partial figure.
    const config::RunSpec &spec = config::RunSpec::resolve();
    const std::string bench = benchutil::orUsageError([&] {
        if (spec.str("benchmarks").empty())
            return std::string("art");
        std::vector<std::string> names = benchmarkNamesFromSpec(spec);
        if (names.size() != 1)
            fatal("benchmarks: Figure 8 traces exactly one benchmark, "
                  "not " + std::to_string(names.size()));
        return names[0];
    });
    std::vector<std::pair<DvfsKind, ExperimentConfig>> models;
    for (DvfsKind model : {DvfsKind::Transmeta, DvfsKind::XScale}) {
        ExperimentConfig ec = benchutil::configFromEnv(model);
        if (spec.isDefault("scale"))
            ec.scale = 3;   // longer run: more phase alternations
        ec.legs = {LegSpec::scheduleReplay("dyn1", ec.dilationLow)};
        // The trace lives only in the run's telemetry, which cached
        // rows never carry: the leg always simulates, so there is no
        // cache to read or fill.
        ec.telemetry.freqSeries = true;
        ec.cacheDir.clear();
        models.emplace_back(model, std::move(ec));
    }

    std::printf("Figure 8: Frequency changes for %s generated by the "
                "off-line algorithm (dynamic-1%%)\n\n", bench.c_str());
    std::vector<BenchmarkResults> rows;
    std::uint64_t changesTm = 0, changesXs = 0;
    for (const auto &[model, ec] : models) {
        BenchmarkResults r = benchutil::orUsageError([&] {
            return runMatrix(ec, {bench}, spec.jobs())[0];
        });
        const RunResult &dyn = r.leg("dyn1");
        if (dyn.failed()) {
            std::printf("%s (%s) -- failed\n\n", bench.c_str(),
                        dvfsKindName(model));
        } else {
            printTrace(bench, dvfsKindName(model), dyn);
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
