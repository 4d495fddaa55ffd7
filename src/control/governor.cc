#include "governor.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace mcd {

const char *
governorPolicyName(GovernorPolicy policy)
{
    switch (policy) {
      case GovernorPolicy::Performance: return "governor-performance";
      case GovernorPolicy::Powersave: return "governor-powersave";
      case GovernorPolicy::Ondemand: return "governor-ondemand";
      case GovernorPolicy::Conservative: return "governor-conservative";
    }
    return "?";
}

GovernorController::GovernorController(GovernorPolicy policy,
                                       const GovernorParams &params,
                                       const DvfsTable &table)
    : PointController(table, params.interval, params.scaleFrontEnd,
                      "GovernorParams"),
      pol(policy), prm(params)
{
    if (!(prm.upThreshold > 0.0 && prm.upThreshold < 1.0))
        fatal("GovernorParams: upThreshold must lie in (0, 1)");
    if (!(prm.downThreshold >= 0.0 &&
          prm.downThreshold < prm.upThreshold)) {
        fatal("GovernorParams: downThreshold must satisfy "
              "0 <= downThreshold < upThreshold");
    }
    if (prm.stepPoints < 1)
        fatal("GovernorParams: stepPoints must be >= 1");
}

int
GovernorController::first(int, int at)
{
    // The static policies act immediately; the adaptive ones need a
    // first interval of history before moving.
    switch (pol) {
      case GovernorPolicy::Performance: return top();
      case GovernorPolicy::Powersave: return 0;
      case GovernorPolicy::Ondemand:
      case GovernorPolicy::Conservative: break;
    }
    return at;
}

int
GovernorController::next(int di, int at, double u, double)
{
    if (pol == GovernorPolicy::Performance ||
        pol == GovernorPolicy::Powersave)
        return first(di, at);

    // RollbackPoint revert: the previous interval stepped down and
    // the queue is now backed up past the up-threshold — the step
    // overshot into dilation territory. Restore the saved point in
    // one jump rather than climbing back gradually.
    if (armed[di] && u >= prm.upThreshold) {
        armed[di] = false;
        return rollback[di];
    }

    int to = at;
    if (pol == GovernorPolicy::Ondemand) {
        // Linux ondemand's proportional rule mapped to points:
        // target = max * load / up_threshold.
        to = u >= prm.upThreshold
            ? top()
            : static_cast<int>(std::lround(static_cast<double>(top()) *
                                           u / prm.upThreshold));
    } else if (u >= prm.upThreshold) {      // Conservative
        to = at + prm.stepPoints;
    } else if (u <= prm.downThreshold) {
        to = at - prm.stepPoints;
    }
    // else: hold.
    to = std::clamp(to, 0, top());

    if (to < at) {
        // Arm a rollback point before committing any downward move.
        rollback[di] = at;
        armed[di] = true;
    } else if (to > at) {
        armed[di] = false;
    }
    return to;
}

} // namespace mcd
