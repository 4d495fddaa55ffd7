/**
 * @file
 * Online control walk-through: run a benchmark with the queue-driven
 * attack/decay controller — no profiling pass, no offline tool — and
 * compare it against the MCD baseline and, for context, an offline
 * dynamic-5% oracle run. All three come from one experiment matrix
 * with the leg set {online, dyn5}, so the MCD baseline doubles as the
 * oracle's profiling run.
 *
 *   ./online_control [benchmark] [xscale|transmeta] [interval-us]
 *                    [--trace-out <path>] [--stats-out <path>]
 *                    [--invariants <spec>]
 *
 * --trace-out writes a merged Chrome trace (chrome://tracing /
 * Perfetto) of all runs; --stats-out writes their stats registries as
 * JSON; --invariants checks the named invariant rules online
 * ("default" for the built-in set). The MCD_TRACE_OUT /
 * MCD_STATS_OUT / MCD_INVARIANTS environment variables are the
 * fallback when the flags are absent.
 */

#include <cstdio>
#include <string>

#include "common/spec.hh"
#include "common/stats.hh"
#include "control/online_queue.hh"
#include "core/experiment.hh"
#include "example_util.hh"
#include "workloads/workloads.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    return exutil::guardedMain([&] {
    exutil::TelemetryArgs telemetry =
        exutil::TelemetryArgs::parse(argc, argv);
    std::string bench = argc > 1 ? argv[1] : "adpcm";
    ExperimentConfig ec;
    if (argc > 2)
        configOption("model").read(ec, "model", argv[2]);
    if (argc > 3) {
        const double us = spec::parseDouble("interval", argv[3]);
        if (!(us > 0.0))
            fatal("interval: expected a positive number of microseconds "
                  "(got '" + std::string(argv[3]) + "')");
        ec.online.interval = fromMicroseconds(us);
    }
    if (telemetry.wanted())
        ec.telemetry = obs::TelemetryConfig::full();
    telemetry.apply(ec.telemetry);
    ec.legs = {LegSpec::controllerLeg("online", "online-queue"),
               LegSpec::scheduleReplay("dyn5", 0.05)};

    std::printf("Running the MCD baseline, the online attack/decay "
                "controller (%s model, %.1f us control interval) and "
                "the offline dynamic-5%% oracle...\n",
                dvfsKindName(ec.model), ec.online.interval / 1e6);
    BenchmarkResults r = ExperimentRunner(ec).runBenchmark(bench);
    // The leg guard has already reported any failed leg on stderr.
    if (int code = matrixExitCode({r}))
        return code;
    const RunResult &base = r.mcdBaseline;
    const RunResult &online = r.leg("online");
    const RunResult &dyn = r.leg("dyn5");

    double deg = static_cast<double>(online.execTime) /
        static_cast<double>(base.execTime) - 1.0;
    double esave = 1.0 - online.totalEnergy / base.totalEnergy;
    double edp = 1.0 - online.energyDelay / base.energyDelay;
    std::printf("\nOnline attack/decay controller\n");
    std::printf("      vs MCD baseline: %s slower, %s energy saved, "
                "EDP %s\n",
                formatPercent(deg).c_str(), formatPercent(esave).c_str(),
                formatPercent(edp).c_str());
    for (Domain d : scalableDomains) {
        const DomainSummary &s = online.domains[domainIndex(d)];
        std::printf("      %s: avg %s, range [%s, %s], %llu "
                    "reconfigurations\n",
                    domainShortName(d),
                    formatMHz(s.avgFrequency).c_str(),
                    formatMHz(s.minFrequency).c_str(),
                    formatMHz(s.maxFrequency).c_str(),
                    static_cast<unsigned long long>(s.reconfigurations));
    }

    // The oracle bound: what the offline tool achieves with the whole
    // trace in hand and a 5% dilation budget.
    std::printf("\nOffline dynamic-5%% oracle for comparison\n");
    double odeg = static_cast<double>(dyn.execTime) /
        static_cast<double>(base.execTime) - 1.0;
    double osave = 1.0 - dyn.totalEnergy / base.totalEnergy;
    std::printf("      vs MCD baseline: %s slower, %s energy saved, "
                "EDP %s\n",
                formatPercent(odeg).c_str(), formatPercent(osave).c_str(),
                formatPercent(1.0 - dyn.energyDelay /
                              base.energyDelay).c_str());
    std::printf("\n      online achieved %.0f%% of the oracle's energy "
                "savings with no profiling pass\n\n",
                osave > 0 ? 100.0 * esave / osave : 0.0);

    telemetry.write({{bench + "/mcdBaseline", &base},
                     {bench + "/online", &online},
                     {bench + "/dyn5", &dyn}});
    return 0;
    });
}
