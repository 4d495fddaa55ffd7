/**
 * @file
 * Shared plumbing for the example binaries: the --trace-out /
 * --stats-out telemetry output flags (backed by the traceOut /
 * statsOut options of the unified config layer, so MCD_TRACE_OUT /
 * MCD_STATS_OUT and --config files keep working) and the writers
 * behind them.
 */

#ifndef MCD_EXAMPLES_EXAMPLE_UTIL_HH
#define MCD_EXAMPLES_EXAMPLE_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "config/registry.hh"
#include "config/runspec.hh"
#include "core/experiment.hh"

namespace mcd {
namespace exutil {

/**
 * Run an example's body with the library's error taxonomy mapped to
 * process exit codes: FatalError (bad usage or configuration,
 * including a failed SimConfig/ExperimentConfig validation) exits 2;
 * any other exception (unexpected simulator error) exits 3 — instead
 * of std::terminate either way.
 */
inline int
guardedMain(const std::function<int()> &body)
{
    try {
        return body();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 3;
    }
}

/**
 * Consume "--trace-out <path>" / "--stats-out <path>" /
 * "--invariants <spec>" / "--config <file>" from argv (compacting the
 * positional arguments so existing positional parsing is unaffected).
 * The flags feed the unified config layer's flag store and the
 * results are read back from the resolved RunSpec, so the
 * MCD_TRACE_OUT / MCD_STATS_OUT / MCD_INVARIANTS environment
 * variables and config-file keys keep working with flag > env > file
 * precedence. "--dump-config-schema" prints the generated
 * configuration reference to stdout and exits. A flag without its
 * value, like a malformed option, is fatal(): call parse() inside
 * guardedMain so either exits 2.
 */
struct TelemetryArgs
{
    std::string traceOut;
    std::string statsOut;
    std::string invariants;

    bool wanted() const { return !traceOut.empty() || !statsOut.empty(); }

    static TelemetryArgs
    parse(int &argc, char **argv)
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--dump-config-schema") {
                config::writeSchemaMarkdown(std::cout);
                std::exit(0);
            }
            const char *name = arg == "--trace-out" ? "traceOut"
                : arg == "--stats-out" ? "statsOut"
                : arg == "--invariants" ? "invariants"
                : arg == "--config" ? "config" : nullptr;
            if (!name) {
                argv[out++] = argv[i];
                continue;
            }
            if (i + 1 >= argc)
                fatal(arg + " requires a value");
            config::setFlagOverride(name, argv[++i]);
        }
        argc = out;
        const config::RunSpec spec = config::RunSpec::resolve();
        TelemetryArgs a;
        a.traceOut = spec.str("traceOut");
        a.statsOut = spec.str("statsOut");
        a.invariants = spec.str("invariants");
        return a;
    }

    /**
     * Apply the output-independent telemetry knobs to a run's config:
     * currently just the invariant spec, which enables the engine even
     * without --trace-out/--stats-out (violations still reach stderr
     * via the run summary and the stats registry).
     */
    void
    apply(obs::TelemetryConfig &tc) const
    {
        if (!invariants.empty())
            tc.invariants = invariants;
    }

    /** Write the requested documents for the given labeled runs. */
    void
    write(const std::vector<NamedRun> &runs) const
    {
        auto writeTo = [&](const std::string &path, auto writer) {
            if (path.empty())
                return;
            std::ofstream os(path);
            if (!os) {
                std::fprintf(stderr, "cannot write %s\n", path.c_str());
                std::exit(1);
            }
            writer(os);
            std::printf("      telemetry written to %s\n", path.c_str());
        };
        writeTo(statsOut, [&](std::ostream &os) {
            writeTelemetryStatsJson(os, runs);
        });
        writeTo(traceOut, [&](std::ostream &os) {
            writeTelemetryTrace(os, runs);
        });
    }
};

} // namespace exutil
} // namespace mcd

#endif // MCD_EXAMPLES_EXAMPLE_UTIL_HH
