/**
 * @file
 * One fuzz scenario: a generated workload × experiment configuration
 * × leg set × fault plan × job count, fully serializable.
 *
 * A Scenario is the unit the soak driver runs, the shrinker
 * minimizes, and the repro file stores. All parts are text that
 * round-trips exactly through the subsystem parsers (GenParams spec,
 * option text, legsToSpec, FaultPlan grammar), so a repro written on
 * one machine replays bit-identically on another.
 *
 * Fault specs inside a Scenario write the benchmark position as "@"
 * ("leg:@/dyn5=vfmisorder"): the generated workload's name is a hash
 * of its parameters, so it changes whenever the shrinker mutates the
 * program — the placeholder keeps fault sites attached to the leg
 * across those mutations, and toConfig() expands it to the concrete
 * benchmark name at run time.
 */

#ifndef MCD_FUZZ_SCENARIO_HH
#define MCD_FUZZ_SCENARIO_HH

#include <iosfwd>
#include <map>
#include <optional>
#include <string>

#include "core/experiment.hh"
#include "fuzz/workload_gen.hh"

namespace mcd {
namespace fuzz {

struct Scenario
{
    GenParams workload;

    /**
     * Experiment dimensions as (option name, raw text) pairs, under
     * the names a --config file uses: model, dvfsTimeScale,
     * dilationLow, dilationHigh, seed, legAttempts, watchdogEdges,
     * watchdogTicks and sampling (absent = full detail). toConfig()
     * reads each through the ExperimentConfig option table
     * (configOptions()); any other name is fatal. Every dimension is
     * optional; the defaults match ExperimentConfig's.
     */
    std::map<std::string, std::string> options;

    /** Leg set (legsToSpec / legsFromSpec grammar). */
    std::string legsSpec;

    /**
     * Declared fault plan (FaultPlan grammar, "@" = benchmark):
     * injected failures whose expected outcome the classifier treats
     * as ok — the soak exercises recovery paths without reporting
     * them as findings.
     */
    std::string faultSpec;

    /**
     * Planted fault plan, same grammar: injected but *not* expected,
     * so whatever it breaks is classified as a genuine finding. This
     * is the canary channel: a planted vfmisorder must surface as an
     * invariant-violation finding or the detection loop is broken.
     */
    std::string plantedSpec;

    /** When > 1, an ok run is re-run on this many workers and the
     *  two result sets must be byte-identical (divergence check). */
    int jobs = 1;

    /** The generated benchmark's registry name. */
    std::string benchName() const { return workload.workloadName(); }

    /**
     * Materialize the ExperimentConfig: interns the workload, reads
     * options and legsSpec, expands "@" in the fault specs, and arms
     * the default invariant set. fatal() on malformed specs.
     */
    ExperimentConfig toConfig() const;

    /** faultSpec and plantedSpec joined, with "@" expanded (helper,
     *  exposed for tests). */
    std::string expandedFaults() const;
};

/** Repro file format version header ("mcd-repro-v2"). */
extern const char *const reproVersion;

/**
 * Write a standalone JSON repro: signature, workload, planted plan
 * and jobs count, plus the options, legs and fault plan as an
 * embedded mcd-runspec-v1 options object (the same option names
 * --config files use; values stay JSON strings so the text
 * round-trips byte-identically).
 */
void writeRepro(std::ostream &os, const Scenario &s,
                const std::string &signature);

/** A parsed repro file. */
struct Repro
{
    Scenario scenario;
    std::string signature;
};

/**
 * Parse a repro written by writeRepro(). Returns nullopt on a version
 * mismatch or malformed content (never throws for file-shape
 * problems; spec-grammar errors inside a well-formed file still
 * fatal() like every other parser).
 */
std::optional<Repro> readRepro(std::istream &is);

} // namespace fuzz
} // namespace mcd

#endif // MCD_FUZZ_SCENARIO_HH
