/**
 * @file
 * A cpufreq-style governor family for the MCD domains, after the
 * Linux governors Mammut's cpufreq layer wraps:
 *
 *  - performance: pin every scalable domain at the fastest operating
 *    point (the MCD-baseline frequencies, restated as a policy);
 *  - powersave: pin every scalable domain at the slowest point;
 *  - ondemand: jump straight to full speed when occupancy crosses the
 *    up-threshold, otherwise track a frequency proportional to the
 *    load (Linux's "scale freq = max * load / up_threshold" rule
 *    mapped onto the operating-point table);
 *  - conservative: step gradually — up a few points above the
 *    up-threshold, down a few points below the down-threshold, hold
 *    in between.
 *
 * The two adaptive policies carry a RollbackPoint (Mammut's term for
 * a saved state one can revert to): before every downward step the
 * governor snapshots the current operating point, and if the next
 * observation shows the queue backed up past the up-threshold — the
 * down-step overshot and is now dilating execution — it restores the
 * snapshot in one jump instead of crawling back step by step.
 *
 * All policies are deterministic and pin the front end (the paper's
 * choice) unless scaleFrontEnd is set.
 */

#ifndef MCD_CONTROL_GOVERNOR_HH
#define MCD_CONTROL_GOVERNOR_HH

#include <array>
#include <cstdint>

#include "control/controller.hh"

namespace mcd {

enum class GovernorPolicy : std::uint8_t {
    Performance,
    Powersave,
    Ondemand,
    Conservative,
};

/** Human-readable policy name ("governor-ondemand", ...). */
const char *governorPolicyName(GovernorPolicy policy);

/** Tuning knobs shared by the adaptive policies. */
struct GovernorParams
{
    /** Control interval per domain (ps). */
    Tick interval = fromMicroseconds(2.5);

    /** Occupancy at/above which ondemand jumps to full speed and
     *  conservative steps up. */
    double upThreshold = 0.60;

    /** Occupancy at/below which conservative steps down. */
    double downThreshold = 0.20;

    /** Points moved per conservative step. */
    int stepPoints = 2;

    /** Scale the front end too (default: pinned). */
    bool scaleFrontEnd = false;
};

class GovernorController : public PointController
{
  public:
    explicit GovernorController(GovernorPolicy policy,
                                const GovernorParams &params = {},
                                const DvfsTable &table = {});

    const char *name() const override
    {
        return governorPolicyName(pol);
    }

    GovernorPolicy policy() const { return pol; }
    const GovernorParams &params() const { return prm; }

    /** Whether @p d has an armed rollback point (test hook). */
    bool rollbackArmed(Domain d) const { return armed[domainIndex(d)]; }

  private:
    int first(int di, int at) override;
    int next(int di, int at, double u, double prev) override;

    GovernorPolicy pol;
    GovernorParams prm;

    std::array<int, numDomains> rollback{};  //!< point before down-step
    std::array<bool, numDomains> armed{};    //!< rollback point valid
};

} // namespace mcd

#endif // MCD_CONTROL_GOVERNOR_HH
