/**
 * @file
 * The soak driver: run a seeded budget of scenario tuples, classify
 * each outcome against the scenario's declared fault plan, journal
 * progress for resumability, shrink findings, and persist repros.
 *
 * Outcome taxonomy (DESIGN.md §14):
 *
 *  - ok: every leg completed (or failed exactly as a *declared* fault
 *    predicts) and no unexpected invariant violations were recorded.
 *  - invariant: an invariant rule fired where no declared fault
 *    explains it.
 *  - watchdog: a leg was aborted by the watchdog without a declared
 *    stall at that site.
 *  - legfail: a leg failed in any other unexpected way (fatal /
 *    panic / exception / dependency / undeclared injection).
 *  - divergence: an ok scenario produced byte-different results when
 *    re-run at jobs=N (determinism contract breach).
 *  - crash: the matrix itself threw past the per-leg guards.
 *
 * Declared faults produce *expected* outcomes, which classify as ok:
 * that is what lets clean soaks include fault tuples that exercise
 * the recovery machinery. Planted faults (Scenario::plantedSpec) are
 * injected but not expected — the canary channel.
 */

#ifndef MCD_FUZZ_SOAK_HH
#define MCD_FUZZ_SOAK_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "fuzz/scenario.hh"

namespace mcd {
namespace fuzz {

enum class OutcomeClass : std::uint8_t {
    Ok,
    Invariant,
    Watchdog,
    LegFail,
    Divergence,
    Crash,
};

const char *outcomeClassName(OutcomeClass c);

/** Classification of one scenario run. */
struct Outcome
{
    OutcomeClass cls = OutcomeClass::Ok;

    /**
     * Stable identity of the failure, independent of the (hashed)
     * benchmark name so it survives shrinking: e.g.
     * "invariant:voltage_leads_freq@dyn5", "watchdog@online",
     * "legfail:fatal@dyn1", "divergence@jobs8", "crash". Empty for ok.
     */
    std::string signature;

    std::string detail;     //!< human-readable elaboration

    bool failed() const { return cls != OutcomeClass::Ok; }
};

/**
 * Run @p s start to finish and classify: serial matrix run, expected-
 * outcome comparison against the declared fault plan, then (for ok
 * outcomes with s.jobs > 1) the jobs=N divergence re-run. Never
 * throws: internal errors come back as Crash outcomes.
 */
Outcome runScenario(const Scenario &s);

/** Options of one soak invocation. */
struct SoakOptions
{
    std::uint64_t rootSeed = 1;
    int budget = 100;           //!< tuple count (indices 0..budget-1)
    int jobs = 1;               //!< divergence-check workers (1 = skip)
    std::string outDir;         //!< journal + repro directory ("" = none)

    /**
     * Planted fault applied to every tuple, as "<leg>=<action>"
     * ("dyn5=vfmisorder"); empty = no plant. Expanded to
     * "leg:@/<leg>=<action>" on each scenario.
     */
    std::string planted;

    bool shrink = true;
    int shrinkRuns = 32;        //!< oracle-run budget per finding
    bool progress = false;      //!< per-tuple stderr lines
};

/** One finding (non-ok tuple) of a soak run. */
struct SoakFinding
{
    std::uint64_t index = 0;
    Outcome outcome;
    std::string reproPath;      //!< minimized repro ("" without outDir)
};

struct SoakReport
{
    std::uint64_t completed = 0;    //!< tuples run by this invocation
    std::uint64_t resumed = 0;      //!< tuples skipped via the journal
    std::uint64_t priorFindings = 0;//!< findings recorded by prior runs
    std::vector<SoakFinding> findings;

    bool clean() const
    { return findings.empty() && priorFindings == 0; }
};

/** The tuples a soak journal records as done. */
struct SoakJournal
{
    /** Tuple index -> recorded outcome class (a later line wins). */
    std::map<std::uint64_t, OutcomeClass> done;
    std::uint64_t skipped = 0;      //!< malformed lines ignored
};

/**
 * Read the entry lines of a soak journal, everything after its
 * header: "<index> <class> <signature>", with '#' lines as comments.
 * A line counts only if its index is a whole unsigned integer and its
 * class is an outcomeClassName(); any other line is counted in
 * skipped and ignored, so its tuple runs again.
 */
SoakJournal readJournal(std::istream &in);

/**
 * Run the soak. With a journal in opts.outDir from a compatible prior
 * invocation (same root seed / jobs / planted spec), completed tuple
 * indices are skipped — an interrupted soak resumes where it died,
 * and rerunning with a larger budget only runs the new indices.
 */
SoakReport runSoak(const SoakOptions &opts);

/** 0 when clean, 1 when any finding was (or had been) recorded. */
int soakExitCode(const SoakReport &report);

/** The deterministic scenario of tuple @p index under @p opts. */
Scenario soakScenario(const SoakOptions &opts, std::uint64_t index);

/** Replay outcome of one repro file. */
struct ReplayResult
{
    bool loaded = false;    //!< file parsed as a repro
    bool matched = false;   //!< outcome signature == recorded signature
    std::string recorded;   //!< signature stored in the file
    Outcome outcome;        //!< what the replay actually produced
};

/** Load and re-run @p path, comparing against its stored signature. */
ReplayResult replayRepro(const std::string &path);

} // namespace fuzz
} // namespace mcd

#endif // MCD_FUZZ_SOAK_HH
