/**
 * @file
 * Shared plumbing for the figure/table bench binaries: experiment
 * configuration from the resolved RunSpec (defaults < config file <
 * env vars < CLI flags; see docs/config-reference.md), and the
 * per-benchmark matrix loop with on-disk caching so fig5/6/7 share
 * one set of runs.
 */

#ifndef MCD_BENCH_BENCH_UTIL_HH
#define MCD_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "config/registry.hh"
#include "config/runspec.hh"
#include "core/experiment.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace benchutil {

/**
 * Configuration errors (bad option values, malformed fault plans,
 * unknown benchmark names) exit with the usage code 2, distinct from
 * the partial/total run-failure codes finish() returns.
 */
template <typename Fn>
inline auto
orUsageError(Fn &&fn) -> decltype(fn())
{
    try {
        return fn();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        std::exit(2);
    }
}

/**
 * Experiment configuration from the resolved RunSpec: scale, seed,
 * cacheDir (defaulting to .mcd-bench-cache when the option is left
 * unset; an explicitly empty MCD_CACHE_DIR still disables caching),
 * the robustness knobs (watchdogEdges / watchdogTicks, legAttempts),
 * sampling, and the DVFS model override.
 */
inline ExperimentConfig
configFromEnv(DvfsKind model = DvfsKind::XScale)
{
    return orUsageError([&] {
        return experimentConfigFromSpec(config::RunSpec::resolve(),
                                        model, ".mcd-bench-cache");
    });
}

#ifdef BENCHMARK_BENCHMARK_H_
/**
 * Shared aggregation settings for the perf-gated kernel
 * microbenchmarks (micro_speed's BM_TimingSimulation /
 * BM_FunctionalExecution / BM_SampledSimulation): a fixed repetition
 * count with median-only reporting, so CI's A/B gate always compares
 * the same statistic at the same sample size on both sides.
 */
inline void
kernelBenchDefaults(benchmark::internal::Benchmark *b)
{
    b->Repetitions(5);
    b->ReportAggregatesOnly(true);
    b->Unit(benchmark::kMillisecond);
}
#endif

/**
 * Benchmark list for a matrix run: all 16 workloads, or the subset
 * named by the benchmarks option (unknown names are rejected so a
 * typo cannot silently shrink a figure). The CI smoke job uses this
 * to run a single benchmark with telemetry enabled.
 */
inline std::vector<std::string>
benchmarkNamesFromEnv()
{
    return orUsageError([] {
        return benchmarkNamesFromSpec(config::RunSpec::resolve());
    });
}

/**
 * Run the full five-configuration matrix for all 16 benchmarks (or
 * the benchmarks-option subset), fanned across the jobs-option worker
 * threads (default: hardware concurrency; 1 = serial). Output order
 * and results are identical for every job count.
 */
inline std::vector<BenchmarkResults>
runMatrix(const ExperimentConfig &ec)
{
    return orUsageError([&] {
        std::vector<std::string> names =
            benchmarkNamesFromSpec(config::RunSpec::resolve());
        int jobs = config::RunSpec::resolve().jobs();
        std::fprintf(stderr, "  matrix: %zu benchmarks, %d jobs\n",
                     names.size(), jobs);
        return mcd::runMatrix(ec, names, jobs, /*progress=*/true);
    });
}

/**
 * End-of-run epilogue for matrix drivers: return the process exit
 * code — exitOk when everything completed, exitPartialFailure /
 * exitTotalFailure otherwise, so CI can tell a degraded figure from a
 * useless one. An otherwise-clean matrix with recorded invariant
 * violations exits exitInvariantViolation when MCD_INVARIANTS_FATAL
 * is set (leg failures outrank the invariant code). runMatrix has
 * already summarized failed legs and violations on stderr.
 */
inline int
finish(const std::vector<BenchmarkResults> &rows)
{
    int code = matrixExitCode(rows);
    if (code == exitOk && countInvariantViolations(rows) &&
        invariantsFatalFromEnv())
        code = exitInvariantViolation;
    return code;
}

/**
 * Handle the shared figure-binary command line, driven entirely by
 * the option registry: every registered option is reachable as
 * `--<flag> <value>` or `--<flag>=<value>` (booleans may omit the
 * value: `--tournament` alone means true), becoming the
 * highest-precedence resolution layer above env vars and the config
 * file. `--dump-config-schema` prints the generated configuration
 * reference (docs/config-reference.md) to stdout and exits; `--help`
 * lists the flags. Unknown flags are rejected with a usage message.
 */
inline void
parseFigureArgs(int argc, char **argv)
{
    auto usage = [&](std::FILE *to) {
        std::fprintf(to,
                     "usage: %s [--<option> <value>]... "
                     "[--dump-config-schema]\n"
                     "  options (see docs/config-reference.md):\n",
                     argv[0]);
        for (const config::OptionDef &o : config::options()) {
            std::fprintf(to, "    %s <%s>%s\n", o.flag,
                         config::typeName(o.type),
                         *o.defaultValue
                             ? (std::string(" (default ") +
                                o.defaultValue + ")").c_str()
                             : "");
        }
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--dump-config-schema") {
            config::writeSchemaMarkdown(std::cout);
            std::exit(0);
        }
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        }
        std::string value;
        bool haveValue = false;
        if (std::size_t eq = arg.find('=');
            eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.resize(eq);
            haveValue = true;
        }
        const config::OptionDef *opt = config::findByFlag(arg);
        if (!opt) {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         argv[0], argv[i]);
            usage(stderr);
            std::exit(2);
        }
        if (!haveValue) {
            // Boolean flags never consume a value word (`--tournament
            // adpcm` must not eat a benchmark name); everything else
            // takes the next argument.
            if (opt->type == config::Type::Bool) {
                value = "1";
            } else if (i + 1 < argc) {
                value = argv[++i];
            } else {
                std::fprintf(stderr, "%s: %s needs a <%s> value\n",
                             argv[0], opt->flag,
                             config::typeName(opt->type));
                std::exit(2);
            }
        }
        config::setFlagOverride(opt->name, value);
    }
}

/**
 * Print one paper-style figure: a metric for every dynamic-control
 * leg per benchmark (the column set follows the configured legs, so
 * a tournament matrix grows one column per registered controller)
 * plus the average row. In the default matrix the "online" column
 * (queue-driven attack/decay controller) extends the paper's four
 * with the practical control loop the oracle columns bound. The title
 * line names the DVFS @p model the matrix ran under.
 */
inline void
printFigure(const char *title, DvfsKind model,
            const std::vector<BenchmarkResults> &rows,
            const std::function<double(const BenchmarkResults &,
                                       const RunResult &)> &metric)
{
    std::printf("%s (%s model)\n\n", title, dvfsKindName(model));
    if (rows.empty()) {
        std::printf("(no benchmarks)\n");
        return;
    }
    TextTable t;
    std::vector<std::string> header{"benchmark", "baseline MCD"};
    for (const ControllerLeg &l : rows[0].legs)
        header.push_back(l.spec.display);
    t.header(std::move(header));
    const std::size_t numCfgs = rows[0].legs.size() + 1;
    std::vector<double> sum(numCfgs, 0.0);
    std::vector<std::size_t> count(numCfgs, 0);
    for (const BenchmarkResults &r : rows) {
        std::vector<const RunResult *> cfgs{&r.mcdBaseline};
        for (const ControllerLeg &l : r.legs)
            cfgs.push_back(&l.run);
        std::vector<std::string> cells{r.name};
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            // Metrics are ratios against the baseline leg: with
            // either run dead there is no number to print, and the
            // column average covers only the legs that completed.
            if (cfgs[i]->failed() || r.baseline.failed()) {
                cells.push_back("failed");
                continue;
            }
            double v = metric(r, *cfgs[i]);
            sum[i] += v;
            ++count[i];
            cells.push_back(formatPercent(v));
        }
        t.row(std::move(cells));
    }
    t.separator();
    std::vector<std::string> avg{"average"};
    for (std::size_t i = 0; i < numCfgs; ++i) {
        avg.push_back(count[i]
                      ? formatPercent(sum[i] /
                                      static_cast<double>(count[i]))
                      : std::string("n/a"));
    }
    t.row(std::move(avg));
    std::fputs(t.render().c_str(), stdout);
}

/**
 * Print the tournament leaderboard: every dynamic-control leg ranked
 * by mean energy-delay-product improvement across the matrix, with
 * its mean energy savings and performance degradation alongside.
 */
inline void
printLeaderboard(const std::vector<BenchmarkResults> &rows)
{
    std::vector<LeaderboardRow> board = computeLeaderboard(rows);
    std::printf("\nController tournament leaderboard "
                "(mean over %zu benchmarks, ranked by EDP "
                "improvement)\n\n",
                rows.size());
    TextTable t;
    t.header({"rank", "leg", "kind", "EDP improvement",
              "energy savings", "perf degradation", "completed"});
    for (std::size_t i = 0; i < board.size(); ++i) {
        const LeaderboardRow &lr = board[i];
        const char *kind = "controller";
        if (lr.spec.kind == LegSpec::Kind::ScheduleReplay)
            kind = "schedule-replay";
        else if (lr.spec.kind == LegSpec::Kind::GlobalSearch)
            kind = "global-search";
        t.row({std::to_string(i + 1), lr.spec.name, kind,
               lr.completed ? formatPercent(lr.meanEdpImprovement)
                            : std::string("n/a"),
               lr.completed ? formatPercent(lr.meanEnergySavings)
                            : std::string("n/a"),
               lr.completed ? formatPercent(lr.meanPerfDegradation)
                            : std::string("n/a"),
               std::to_string(lr.completed) + "/" +
                   std::to_string(lr.completed + lr.failed)});
    }
    std::fputs(t.render().c_str(), stdout);
}

} // namespace benchutil
} // namespace mcd

#endif // MCD_BENCH_BENCH_UTIL_HH
