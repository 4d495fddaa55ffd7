#include "pid.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace mcd {

PidController::PidController(const PidParams &params,
                             const DvfsTable &table_)
    : prm(params), table(table_)
{
    if (prm.interval == 0)
        fatal("PidParams: interval must be > 0");
    if (!(prm.setpoint > 0.0 && prm.setpoint < 1.0))
        fatal("PidParams: setpoint must lie in (0, 1)");
    if (!(std::isfinite(prm.kp) && std::isfinite(prm.ki) &&
          std::isfinite(prm.kd)) ||
        prm.kp < 0.0 || prm.ki < 0.0 || prm.kd < 0.0) {
        fatal("PidParams: gains must be finite and >= 0");
    }
    if (prm.kp == 0.0 && prm.ki == 0.0)
        fatal("PidParams: at least one of kp, ki must be positive");
    level.fill(-1);
}

void
PidController::observe(const DomainStats &stats, Tick)
{
    if (stats.domain == Domain::FrontEnd && !prm.scaleFrontEnd)
        return;

    int di = domainIndex(stats.domain);
    double u = stats.window.meanOccupancy();
    int top = table.numPoints() - 1;

    if (!seen[di]) {
        // First observation: latch the operating point the domain
        // started at as the loop's operating base.
        seen[di] = true;
        level[di] = table.indexNearest(stats.frequency);
        base[di] = static_cast<double>(level[di]);
        prevErr[di] = u - prm.setpoint;
        return;
    }

    double err = u - prm.setpoint;
    integral[di] += err;
    if (prm.ki > 0.0) {
        // Anti-windup: the integral contribution is capped at one
        // table span in either direction, so a long idle phase cannot
        // bank unbounded downward pressure that a later burst must
        // pay off interval by interval.
        double cap = static_cast<double>(top) / prm.ki;
        integral[di] = std::clamp(integral[di], -cap, cap);
    }
    double out = base[di] + prm.kp * err + prm.ki * integral[di] +
        prm.kd * (err - prevErr[di]);
    prevErr[di] = err;

    int next = std::clamp(static_cast<int>(std::lround(out)), 0, top);
    if (next != level[di]) {
        level[di] = next;
        request(stats.domain, table.point(next).frequency);
    }
}

} // namespace mcd
