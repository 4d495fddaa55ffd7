/**
 * @file
 * Reproduces paper Figure 9: per-benchmark summary statistics of the
 * intervals chosen by the off-line tool for the dynamic-5%
 * configuration under the Transmeta and XScale models --
 * reconfigurations per million instructions (bars) and the average /
 * min / max frequency per domain ("error bars").
 *
 * Paper shape: average frequencies are similar between models, but
 * the Transmeta model performs far fewer reconfigurations over
 * narrower frequency ranges.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    benchutil::parseFigureArgs(argc, argv);
    std::printf("Figure 9: Summary statistics for intervals chosen by "
                "the off-line tool (dynamic-5%%)\n\n");

    std::vector<BenchmarkResults> all;
    double avgRc[2] = {};
    for (int mi = 0; mi < 2; ++mi) {
        DvfsKind model = mi ? DvfsKind::XScale : DvfsKind::Transmeta;
        ExperimentConfig ec = benchutil::configFromEnv(model);
        ec.legs = {LegSpec::scheduleReplay("dyn5", ec.dilationHigh)};
        std::vector<BenchmarkResults> rows = benchutil::runMatrix(ec);

        std::printf("%s reconfiguration data\n", dvfsKindName(model));
        TextTable t;
        t.header({"benchmark", "reconf/1M", "INT avg", "INT range",
                  "FP avg", "FP range", "LS avg", "LS range"});
        double totalRc = 0.0;
        std::size_t completed = 0;
        for (const BenchmarkResults &b : rows) {
            const RunResult &r = b.leg("dyn5");
            if (r.failed()) {
                std::vector<std::string> cells(8, "failed");
                cells[0] = b.name;
                t.row(std::move(cells));
                continue;
            }
            std::uint64_t rc = 0;
            for (int d = 1; d < numDomains; ++d)
                rc += r.domains[d].reconfigurations;
            double rcPerM = 1e6 * static_cast<double>(rc) /
                static_cast<double>(r.committed);
            totalRc += rcPerM;
            ++completed;
            auto range = [&](int d) {
                char buf[48];
                std::snprintf(buf, sizeof(buf), "[%.0f-%.0f]",
                              r.domains[d].minFrequency / 1e6,
                              r.domains[d].maxFrequency / 1e6);
                return std::string(buf);
            };
            t.row({b.name, formatFixed(rcPerM, 1),
                   formatMHz(r.domains[1].avgFrequency), range(1),
                   formatMHz(r.domains[2].avgFrequency), range(2),
                   formatMHz(r.domains[3].avgFrequency), range(3)});
        }
        std::fputs(t.render().c_str(), stdout);
        std::printf("\n");
        if (completed)
            avgRc[mi] = totalRc / static_cast<double>(completed);
        all.insert(all.end(), rows.begin(), rows.end());
    }

    bool shape = avgRc[1] > avgRc[0];
    std::printf("Paper shape -- far fewer reconfigurations under "
                "Transmeta than XScale: %s (%.1f vs %.1f per 1M insts "
                "on average)\n",
                shape ? "REPRODUCED" : "NOT REPRODUCED",
                avgRc[0], avgRc[1]);
    return std::max(benchutil::finish(all), shape ? 0 : 1);
}
