/**
 * @file
 * Offline scheduler walk-through: profile a benchmark on the MCD
 * simulator, run the paper's offline analysis (dependence DAG ->
 * shaker -> histograms -> clustering), print the per-domain frequency
 * plan and the reconfiguration log file, then replay it in a dynamic
 * run and report the outcome.
 *
 *   ./offline_scheduler [benchmark] [dilation-%] [xscale|transmeta]
 *                       [--trace-out <path>] [--stats-out <path>]
 *                       [--invariants <spec>]
 *
 * --trace-out writes a merged Chrome trace (chrome://tracing /
 * Perfetto) of the profiling and dynamic runs; --stats-out writes
 * their stats registries as JSON; --invariants checks the named
 * invariant rules online ("default" for the built-in set).
 * MCD_TRACE_OUT / MCD_STATS_OUT / MCD_INVARIANTS are the environment
 * fallback when the flags are absent.
 */

#include <cstdio>
#include <string>

#include "analysis/analyzer.hh"
#include "common/spec.hh"
#include "common/stats.hh"
#include "control/controller.hh"
#include "core/experiment.hh"
#include "core/processor.hh"
#include "example_util.hh"
#include "workloads/workloads.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    return exutil::guardedMain([&] {
    exutil::TelemetryArgs telemetry =
        exutil::TelemetryArgs::parse(argc, argv);
    std::string bench = argc > 1 ? argv[1] : "art";
    ExperimentConfig modelArg;
    if (argc > 3)
        configOption("model").read(modelArg, "model", argv[3]);
    const DvfsKind model = modelArg.model;
    const double dilation =
        argc > 2 ? spec::parseDouble("dilation", argv[2]) / 100.0 : 0.05;
    if (dilation < 0.0)
        fatal("dilation: expected a non-negative percentage (got '" +
              std::string(argv[2]) + "')");
    const double timeScale = 0.2;

    Program prog = workloads::build(bench, 1);

    // Step 1: the profiling run -- baseline MCD at full speed with
    // primitive-event trace collection (paper Section 3.2).
    std::printf("[1/3] Profiling run (baseline MCD, all domains at "
                "1 GHz)...\n");
    SimConfig profCfg;
    profCfg.clocking = ClockingStyle::Mcd;
    profCfg.collectTrace = true;
    if (telemetry.wanted())
        profCfg.telemetry = obs::TelemetryConfig::full();
    telemetry.apply(profCfg.telemetry);
    McdProcessor prof(profCfg, prog);
    RunResult profile = prof.run();
    std::printf("      %llu instructions, %zu trace records, %s\n\n",
                static_cast<unsigned long long>(profile.committed),
                prof.trace().size(),
                formatTime(profile.execTime).c_str());

    // Step 2: the offline tool.
    std::printf("[2/3] Offline analysis (shaker + clustering, "
                "d = %.0f%%, %s model)...\n", dilation * 100.0,
                dvfsKindName(model));
    OfflineAnalyzer analyzer(
        OfflineAnalyzer::configFor(dilation, model, timeScale));
    AnalysisResult analysis = analyzer.analyze(prof.trace().trace());
    std::printf("      %zu intervals, %zu events, %.1f us of slack "
                "absorbed\n\n", analysis.intervals,
                analysis.eventsTotal, analysis.slackConsumed / 1e6);

    for (Domain d : scalableDomains) {
        std::printf("      %s plan:", domainShortName(d));
        for (const PlanSegment &s : analysis.plans[domainIndex(d)]) {
            std::printf(" [%.0f-%.0f us @ %.0f MHz]", s.start / 1e6,
                        s.end / 1e6, s.frequency / 1e6);
        }
        std::printf("\n");
    }
    std::printf("\n      Reconfiguration log (time-ps domain freq-Hz):\n");
    std::string log = analysis.schedule.toText();
    std::fputs(log.empty() ? "      (no reconfigurations)\n"
                           : log.c_str(), stdout);

    // Step 3: the dynamic run consuming the schedule, replayed
    // through the control plane: a ScheduleController plugged into
    // SimConfig::controller (equivalent to setting
    // SimConfig::schedule, which wraps one internally).
    std::printf("\n[3/3] Dynamic run (%s transitions)...\n",
                dvfsKindName(model));
    ScheduleController ctrl(analysis.schedule);
    SimConfig dynCfg;
    dynCfg.clocking = ClockingStyle::Mcd;
    dynCfg.dvfs = model;
    dynCfg.dvfsTimeScale = timeScale;
    dynCfg.controller = &ctrl;
    if (telemetry.wanted())
        dynCfg.telemetry = obs::TelemetryConfig::full();
    telemetry.apply(dynCfg.telemetry);
    McdProcessor dyn(dynCfg, prog);
    RunResult r = dyn.run();

    double deg = static_cast<double>(r.execTime) /
        static_cast<double>(profile.execTime) - 1.0;
    double esave = 1.0 - r.totalEnergy / profile.totalEnergy;
    std::printf("      vs the MCD profiling run: %s slower, %s energy "
                "saved, EDP %s\n",
                formatPercent(deg).c_str(), formatPercent(esave).c_str(),
                formatPercent(
                    1.0 - r.energyDelay / profile.energyDelay).c_str());
    for (Domain d : scalableDomains) {
        const DomainSummary &s = r.domains[domainIndex(d)];
        std::printf("      %s: avg %s, range [%s, %s], %llu "
                    "reconfigurations\n",
                    domainShortName(d),
                    formatMHz(s.avgFrequency).c_str(),
                    formatMHz(s.minFrequency).c_str(),
                    formatMHz(s.maxFrequency).c_str(),
                    static_cast<unsigned long long>(s.reconfigurations));
    }

    telemetry.write({{bench + "/profile", &profile},
                     {bench + "/dynamic", &r}});
    return 0;
    });
}
