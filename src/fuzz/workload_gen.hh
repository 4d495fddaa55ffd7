/**
 * @file
 * Deterministic mini-ISA workload synthesis for the fuzz/soak harness.
 *
 * A GenParams value describes one synthetic program as a sequence of
 * phases — integer dependence chains, bounded floating-point chains,
 * strided memory streams, and data-dependent branch blocks — the same
 * axes along which the fixed Table 2 kernels differ (instruction mix,
 * ILP, working set, branch predictability, phase structure). Programs
 * are pure functions of their parameters: the same GenParams (at the
 * same scale) builds a byte-identical Program on every platform, so a
 * failing scenario replays exactly from its serialized spec.
 *
 * Generated workloads enter the experiment engine through the
 * workloads::registerGenerator() hook under names of the form
 * "fuzz-<16 hex digits>", where the digits hash the parameter spec:
 * the name alone keys telemetry sites, fault sites, and the result
 * cache, so two distinct generated programs can never alias each
 * other — or any fixed benchmark — anywhere downstream.
 */

#ifndef MCD_FUZZ_WORKLOAD_GEN_HH
#define MCD_FUZZ_WORKLOAD_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace mcd {
namespace fuzz {

/** What one phase of a generated program exercises. */
enum class PhaseKind : std::uint8_t {
    IntChain,   //!< serial integer dependence chain (ILP axis)
    FpChain,    //!< bounded floating-point chain (FP unit pressure)
    MemStream,  //!< strided load/store walk (footprint/stride axes)
    Branchy,    //!< data-dependent branches (predictability axis)
};

const char *phaseKindName(PhaseKind k);

/** One phase of a generated program. */
struct PhaseParams
{
    PhaseKind kind = PhaseKind::IntChain;
    int iters = 100;            //!< loop iterations (scaled by build scale)
    int chainDepth = 4;         //!< dependent ops per iteration (1..8)
    int footprintWords = 256;   //!< MemStream: data block words
    int stride = 1;             //!< MemStream: words per step
    int takenPercent = 50;      //!< Branchy: % of iterations taken
};

/**
 * The full description of one generated workload. Everything that
 * shapes the emitted program is here; the shrinker mutates these
 * fields directly and reserializes.
 */
struct GenParams
{
    std::uint64_t seed = 1;     //!< data/constant initialization stream
    std::vector<PhaseParams> phases;

    /** Sample a random program shape from a seed (1-4 phases). */
    static GenParams fromSeed(std::uint64_t seed);

    /**
     * Canonical spec string, exactly round-tripping through
     * fromSpec():
     *
     *   seed=N;phase=<kind>:<iters>:<chain>:<foot>:<stride>:<taken>;...
     *
     * with kind in {int, fp, mem, branch}.
     */
    std::string spec() const;

    /** Parse a spec() string (fatal() on malformed input). */
    static GenParams fromSpec(const std::string &text);

    /** "fuzz-<16 hex>" — the hash covers the full spec. */
    std::string workloadName() const;

    /** Build the program (deterministic in (params, scale)). */
    Program generate(int scale) const;
};

/**
 * Intern @p params into the process-global generated-workload table
 * and register the "fuzz-" prefix with the workload registry (once),
 * so workloads::build(name, scale) resolves the returned name from
 * any thread. Interning the same params again is idempotent. Returns
 * params.workloadName().
 */
std::string internWorkload(const GenParams &params);

/** The interned params behind @p name, or nullptr. */
const GenParams *findWorkload(const std::string &name);

} // namespace fuzz
} // namespace mcd

#endif // MCD_FUZZ_WORKLOAD_GEN_HH
