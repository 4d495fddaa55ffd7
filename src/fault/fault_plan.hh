/**
 * @file
 * Deterministic fault injection for the simulation stack.
 *
 * A FaultPlan names the failures one process run should suffer, so
 * every recovery path in the experiment engine — per-leg isolation,
 * bounded retry, the no-progress watchdog, cache quarantine — can be
 * exercised on demand and reproducibly. Plans are pure data: whether
 * a site fires depends only on (site, attempt), never on thread
 * interleaving, so an injected matrix is bit-identical for any
 * MCD_JOBS value.
 *
 * Spec grammar (MCD_FAULT_PLAN or ExperimentConfig::faults):
 *
 *     plan   := item (';' item)*
 *     item   := 'seed=' N
 *             | 'leg:' bench '/' leg '=' legact
 *             | 'cache:' bench '=' cacheact
 *     legact := 'throw' | 'flaky' [':' k] | 'stall' | 'vfmisorder'
 *     cacheact := 'truncate' | 'corrupt'
 *
 * e.g. MCD_FAULT_PLAN="leg:adpcm/dyn1=throw;cache:mst=truncate"
 *
 *  - throw:    the leg fails permanently (every attempt).
 *  - flaky:k   the leg's first k attempts fail with a *transient*
 *              fault (default 1); the experiment engine's bounded
 *              retry should recover it.
 *  - stall:    the leg's simulation stops making commit progress, so
 *              the McdProcessor watchdog must convert it into a
 *              structured error (pair with MCD_WATCHDOG_EDGES).
 *  - vfmisorder: the leg's DVFS engines apply frequency rises before
 *              the voltage ramp (DomainDvfs::injectVfMisorder), the
 *              hazard the voltage_leads_freq invariant catches — the
 *              leg completes, with violations on its telemetry.
 *  - truncate / corrupt: damage the benchmark's on-disk experiment
 *              cache file before it is read, forcing the checksum
 *              check and quarantine path.
 *
 * Leg names follow the matrix columns: baseline, mcdBaseline, dyn1,
 * dyn5, global, online.
 */

#ifndef MCD_FAULT_FAULT_PLAN_HH
#define MCD_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace mcd {
namespace fault {

/** What an armed fault site does when reached. */
enum class FaultKind : std::uint8_t {
    Throw,          //!< leg fails on every attempt
    Flaky,          //!< leg fails on the first `count` attempts
    Stall,          //!< simulation stops committing (watchdog food)
    VfMisorder,     //!< freq rises apply before the voltage ramp
    TruncateCache,  //!< cache file loses its tail before the read
    CorruptCache,   //!< cache file payload bytes are flipped
};

/** Thrown at an armed leg site; transient faults may be retried. */
class InjectedFault : public std::runtime_error
{
  public:
    InjectedFault(const std::string &site, bool transient_);

    const std::string &site() const { return where; }
    bool transient() const { return isTransient; }

  private:
    std::string where;
    bool isTransient;
};

/** One armed site of a plan. */
struct FaultSpec
{
    std::string site;       //!< "bench/leg" or bench name (cache kinds)
    FaultKind kind = FaultKind::Throw;
    int count = 1;          //!< Flaky: attempts that fail
};

class FaultPlan
{
  public:
    /** Parse a spec string; fatal() (FatalError) on malformed input.
     *  The faultPlan option (MCD_FAULT_PLAN / --fault-plan) reaches
     *  runs through runMatrix()'s effective-config resolution, which
     *  parses the option value with this. */
    static FaultPlan parse(const std::string &text);

    bool empty() const { return armed.empty(); }
    const std::vector<FaultSpec> &specs() const { return armed; }

    /**
     * Canonical spec string, exactly round-tripping through parse():
     * armed sites in plan order, then seed=N when it differs from the
     * default. Flaky emits its :k count only when not 1 (parse()'s
     * default). The fuzz shrinker serializes minimized plans with
     * this, so the round-trip is a hard contract, not best-effort.
     */
    std::string toSpec() const;

    /** Reserved for future stochastic plans (determinism contract). */
    std::uint64_t seed() const { return rngSeed; }

    /**
     * Leg fault point. Throws InjectedFault when the plan arms a
     * Throw here, or a Flaky whose count covers this (1-based)
     * attempt. Purely a function of (site, attempt): deterministic
     * under any job count.
     */
    void onLegAttempt(const std::string &site, int attempt) const;

    /** True when the plan stalls the simulation of leg @p site. */
    bool stallsLeg(const std::string &site) const;

    /** True when the plan mis-orders V/f transitions of leg @p site. */
    bool misordersLeg(const std::string &site) const;

    /** True when any leg of @p bench has a Throw/Flaky/Stall armed. */
    bool legFaultsFor(const std::string &bench) const;

    /** Cache damage armed for @p bench's cache file, if any. */
    std::optional<FaultKind> cacheFault(const std::string &bench) const;

  private:
    const FaultSpec *findLeg(const std::string &site,
                             FaultKind kind) const;

    std::vector<FaultSpec> armed;
    std::uint64_t rngSeed = 1;
};

/**
 * Damage the file at @p path in place: TruncateCache halves it,
 * CorruptCache flips bytes in the middle. Returns false when the file
 * does not exist or cannot be rewritten. Used by the cache layer to
 * apply a plan's cache faults and by tests directly.
 */
bool damageFile(const std::string &path, FaultKind kind);

} // namespace fault
} // namespace mcd

#endif // MCD_FAULT_FAULT_PLAN_HH
