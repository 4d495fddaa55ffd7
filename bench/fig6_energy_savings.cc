/**
 * @file
 * Reproduces paper Figure 6: energy savings relative to the singly
 * clocked baseline for the four configurations (XScale model).
 *
 * Paper shape: baseline MCD slightly negative (~-1.5%); dynamic-5%
 * ~27%; global < 12% (limited by the compressed voltage range);
 * per-domain scaling beats global at matched degradation everywhere
 * except the most FP/balanced codes.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    benchutil::parseFigureArgs(argc, argv);
    ExperimentConfig ec = benchutil::configFromEnv(DvfsKind::XScale);
    auto rows = benchutil::runMatrix(ec);
    benchutil::printFigure(
        "Figure 6: Energy savings results", ec.model, rows,
        [](const BenchmarkResults &r, const RunResult &run) {
            return r.energySavings(run);
        });
    std::printf(
        "\nPaper reference: dynamic-5%% ~27%% avg; global < 12%% avg; "
        "MCD baseline ~-1.5%%.\n");
    if (config::RunSpec::resolve().boolean("tournament"))
        benchutil::printLeaderboard(rows);
    return benchutil::finish(rows);
}
