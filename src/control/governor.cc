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
                                       const DvfsTable &table_)
    : pol(policy), prm(params), table(table_)
{
    if (prm.interval == 0)
        fatal("GovernorParams: interval must be > 0");
    if (!(prm.upThreshold > 0.0 && prm.upThreshold < 1.0))
        fatal("GovernorParams: upThreshold must lie in (0, 1)");
    if (!(prm.downThreshold >= 0.0 &&
          prm.downThreshold < prm.upThreshold)) {
        fatal("GovernorParams: downThreshold must satisfy "
              "0 <= downThreshold < upThreshold");
    }
    if (prm.stepPoints < 1)
        fatal("GovernorParams: stepPoints must be >= 1");
    level.fill(-1);
}

void
GovernorController::moveTo(Domain d, int next)
{
    int di = domainIndex(d);
    if (next == level[di])
        return;
    level[di] = next;
    request(d, table.point(next).frequency);
}

void
GovernorController::observe(const DomainStats &stats, Tick)
{
    if (stats.domain == Domain::FrontEnd && !prm.scaleFrontEnd)
        return;

    int di = domainIndex(stats.domain);
    int top = table.numPoints() - 1;
    double u = stats.window.meanOccupancy();

    if (!seen[di]) {
        seen[di] = true;
        level[di] = table.indexNearest(stats.frequency);
        // The static policies act immediately; the adaptive ones need
        // a first interval of history before moving.
        if (pol == GovernorPolicy::Performance)
            moveTo(stats.domain, top);
        else if (pol == GovernorPolicy::Powersave)
            moveTo(stats.domain, 0);
        return;
    }

    switch (pol) {
      case GovernorPolicy::Performance:
        moveTo(stats.domain, top);
        return;
      case GovernorPolicy::Powersave:
        moveTo(stats.domain, 0);
        return;
      case GovernorPolicy::Ondemand:
      case GovernorPolicy::Conservative:
        break;
    }

    // RollbackPoint revert: the previous interval stepped down and
    // the queue is now backed up past the up-threshold — the step
    // overshot into dilation territory. Restore the saved point in
    // one jump rather than climbing back gradually.
    if (armed[di] && u >= prm.upThreshold) {
        armed[di] = false;
        moveTo(stats.domain, rollback[di]);
        return;
    }

    int next = level[di];
    if (pol == GovernorPolicy::Ondemand) {
        if (u >= prm.upThreshold) {
            next = top;
        } else {
            // Linux ondemand's proportional rule mapped to points:
            // target = max * load / up_threshold.
            next = static_cast<int>(
                std::lround(static_cast<double>(top) * u /
                            prm.upThreshold));
            next = std::clamp(next, 0, top);
        }
    } else {    // Conservative
        if (u >= prm.upThreshold)
            next = std::clamp(next + prm.stepPoints, 0, top);
        else if (u <= prm.downThreshold)
            next = std::clamp(next - prm.stepPoints, 0, top);
        // else: hold.
    }

    if (next < level[di]) {
        // Arm a rollback point before committing any downward move.
        rollback[di] = level[di];
        armed[di] = true;
    } else if (next > level[di]) {
        armed[di] = false;
    }
    moveTo(stats.domain, next);
}

} // namespace mcd
