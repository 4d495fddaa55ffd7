/**
 * @file
 * Reproduces paper Table 2: the benchmark roster, and extends it with
 * measured characteristics of our kernel substitutes (instruction
 * count, IPC, instruction mix, cache and branch behaviour) from a
 * baseline run, so the reader can check the substitution fidelity
 * argument of DESIGN.md section 4.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/processor.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    benchutil::parseFigureArgs(argc, argv);
    ExperimentConfig ec = benchutil::configFromEnv();

    std::printf("Table 2: Benchmarks (paper roster + measured kernel "
                "characteristics, scale %d)\n\n", ec.scale);
    TextTable t;
    t.header({"benchmark", "suite", "paper dataset", "paper window",
              "insts", "IPC", "%mem", "%FP", "L1D miss", "L2 miss",
              "mispred"});
    for (const WorkloadInfo &w : workloads::all()) {
        Program p = workloads::build(w.name, ec.scale);
        SimConfig cfg;
        cfg.clocking = ClockingStyle::SingleClock;
        cfg.seed = ec.seed;
        McdProcessor proc(cfg, p);
        RunResult r = proc.run();
        double mem = static_cast<double>(r.pipeline.committedLoads +
                                         r.pipeline.committedStores) /
            static_cast<double>(r.committed);
        double fp = static_cast<double>(r.pipeline.committedFp) /
            static_cast<double>(r.committed);
        t.row({w.name, w.suite, w.dataset, w.window,
               std::to_string(r.committed), formatFixed(r.ipc, 2),
               formatPercent(mem, 0), formatPercent(fp, 0),
               formatPercent(r.l1d.missRate()),
               formatPercent(r.l2.missRate()),
               formatPercent(r.bpredMispredictRate)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\nPaper windows refer to the original Alpha binaries "
                "(100M-instruction SimPoint-style windows);\nour kernels "
                "are laptop-scale substitutes -- see DESIGN.md section 4, "
                "substitution 1.\n");
    return 0;
}
