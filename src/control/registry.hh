/**
 * @file
 * The controller registry: dynamic-control policies as data.
 *
 * Every DVFS control policy is a named factory in one constant table;
 * the experiment layer instantiates controllers by (name, param spec)
 * instead of hard-coding one class per matrix leg. Adding a policy to
 * the full evaluation — every figure, the results JSON, the cache,
 * the fault sites, the tournament leaderboard — is one table row.
 *
 * The param spec is a comma-separated "key=value" list with numeric
 * values ("setpoint=0.5,kp=32"); each factory documents its keys and
 * rejects unknown ones by enumerating the valid set, the same
 * actionable-rejection treatment dvfsKindFromName's callers give
 * model names. An empty spec means the factory defaults, which for
 * "online-queue" are the experiment config's OnlineQueueParams — so
 * the registry-built online leg is bit-identical to the historical
 * hard-coded one.
 *
 * Thread safety: the table is immutable, so lookups need no lock.
 * Factories are pure (construct a fresh controller per call), so
 * concurrent make() calls from matrix workers are safe.
 */

#ifndef MCD_CONTROL_REGISTRY_HH
#define MCD_CONTROL_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clock/operating_points.hh"
#include "control/controller.hh"
#include "control/online_queue.hh"

namespace mcd {

/**
 * Everything a controller factory may draw defaults from: the
 * operating-point table, the experiment seed, and the experiment
 * config's online-queue tuning (the online leg's historical knobs).
 */
struct ControllerContext
{
    DvfsTable table;
    std::uint64_t seed = 1;
    OnlineQueueParams online;
};

/**
 * One parsed "key=value" pair of a controller param spec. Values are
 * numeric; booleans are 0/1; a "*-points" key is a whole number in
 * int range, and interval-us is positive and fits a Tick.
 */
using ControllerParam = std::pair<std::string, double>;

/**
 * Parse a comma-separated "key=value[,key=value...]" spec. Fatal on
 * malformed items (missing '=', empty key, non-numeric value, an
 * out-of-range "*-points" or interval-us value, a scale-fe other than
 * 0 or 1), naming @p what in the message. An empty spec parses to an
 * empty list.
 */
std::vector<ControllerParam>
parseControllerParams(const std::string &text, const std::string &what);

class ControllerRegistry
{
  public:
    /** The process-wide registry of the built-in controllers. */
    static const ControllerRegistry &instance();

    /** Registered names, in table order. */
    std::vector<std::string> names() const;

    /**
     * Instantiate the controller registered as @p name. Fatal when
     * the name is unknown, enumerating every registered name.
     */
    std::unique_ptr<DvfsController>
    make(const std::string &name, const ControllerContext &ctx,
         const std::string &params = {}) const;

  private:
    ControllerRegistry() = default;
};

} // namespace mcd

#endif // MCD_CONTROL_REGISTRY_HH
