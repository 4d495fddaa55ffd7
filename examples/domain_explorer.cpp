/**
 * @file
 * Domain explorer: sweep a single domain's static frequency while the
 * others stay at 1 GHz, and print the performance/energy trade-off.
 * This is the manual version of what the offline tool automates, and
 * makes the per-benchmark sensitivities in the paper's Section 4
 * narrative directly visible (e.g. g721's integer domain is
 * untouchable; mcf's barely matters).
 *
 *   ./domain_explorer [benchmark] [domain: int|fp|ls]
 */

#include <cstdio>
#include <string>

#include "common/stats.hh"
#include "core/processor.hh"
#include "example_util.hh"
#include "workloads/workloads.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    return exutil::guardedMain([&] {
    std::string bench = argc > 1 ? argv[1] : "g721";
    std::string domArg = argc > 2 ? argv[2] : "int";
    Domain dom = Domain::Integer;
    if (domArg == "fp")
        dom = Domain::FloatingPoint;
    else if (domArg == "ls")
        dom = Domain::LoadStore;
    else if (domArg != "int")
        fatal("domain must be int, fp, or ls (got '" + domArg + "')");

    Program prog = workloads::build(bench, 1);

    // Reference: all domains at 1 GHz.
    SimConfig ref;
    ref.clocking = ClockingStyle::Mcd;
    RunResult base = McdProcessor(ref, prog).run();

    std::printf("Static frequency sweep of the %s domain for '%s'\n\n",
                domainName(dom), bench.c_str());
    TextTable t;
    t.header({"frequency", "voltage", "time", "perf cost",
              "energy saved", "EDP gain"});

    DvfsTable table;
    for (int idx = table.numPoints() - 1; idx >= 0; idx -= 4) {
        Hertz f = table.point(idx).frequency;
        SimConfig cfg = ref;
        cfg.domainFrequency[domainIndex(dom)] = f;
        RunResult r = McdProcessor(cfg, prog).run();
        double deg = static_cast<double>(r.execTime) /
            static_cast<double>(base.execTime) - 1.0;
        double esave = 1.0 - r.totalEnergy / base.totalEnergy;
        double edp = 1.0 - r.energyDelay / base.energyDelay;
        char volt[16];
        std::snprintf(volt, sizeof(volt), "%.3f V",
                      table.point(idx).voltage);
        t.row({formatMHz(f), volt, formatTime(r.execTime),
               formatPercent(deg), formatPercent(esave),
               formatPercent(edp)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\n(The offline tool picks per-interval frequencies "
                "automatically; see the offline_scheduler example.)\n");
    return 0;
    });
}
