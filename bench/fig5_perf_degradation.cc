/**
 * @file
 * Reproduces paper Figure 5: performance degradation (relative to the
 * singly clocked baseline) of the baseline MCD, dynamic-1%,
 * dynamic-5%, and global voltage scaling configurations, under the
 * XScale scaling model.
 *
 * Paper shape: baseline MCD < 4% on average; dynamic-5% roughly its
 * target above that; global matched to dynamic-5% by construction.
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
        "Figure 5: Performance degradation results", ec.model,
        rows,
        [](const BenchmarkResults &r, const RunResult &run) {
            return r.perfDegradation(run);
        });
    std::printf(
        "\nPaper reference: baseline MCD < 4%% avg; dynamic-5%% ~10%%; "
        "global matched to dynamic-5%%.\n");
    if (config::RunSpec::resolve().boolean("tournament"))
        benchutil::printLeaderboard(rows);
    return benchutil::finish(rows);
}
