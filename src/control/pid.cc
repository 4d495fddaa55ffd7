#include "pid.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace mcd {

PidController::PidController(const PidParams &params,
                             const DvfsTable &table)
    : PointController(table, params.interval, params.scaleFrontEnd,
                      "PidParams"),
      prm(params)
{
    if (!(prm.setpoint > 0.0 && prm.setpoint < 1.0))
        fatal("PidParams: setpoint must lie in (0, 1)");
    if (!(std::isfinite(prm.kp) && std::isfinite(prm.ki) &&
          std::isfinite(prm.kd)) ||
        prm.kp < 0.0 || prm.ki < 0.0 || prm.kd < 0.0) {
        fatal("PidParams: gains must be finite and >= 0");
    }
    if (prm.kp == 0.0 && prm.ki == 0.0)
        fatal("PidParams: at least one of kp, ki must be positive");
}

int
PidController::first(int di, int at)
{
    // The point the domain started at is the loop's operating base.
    base[di] = static_cast<double>(at);
    return at;
}

int
PidController::next(int di, int, double u, double prev)
{
    double err = u - prm.setpoint;
    integral[di] += err;
    if (prm.ki > 0.0) {
        // Anti-windup: the integral contribution is capped at one
        // table span in either direction, so a long idle phase cannot
        // bank unbounded downward pressure that a later burst must
        // pay off interval by interval.
        double cap = static_cast<double>(top()) / prm.ki;
        integral[di] = std::clamp(integral[di], -cap, cap);
    }
    double prevErr = prev - prm.setpoint;
    double out = base[di] + prm.kp * err + prm.ki * integral[di] +
        prm.kd * (err - prevErr);
    return static_cast<int>(std::lround(out));
}

} // namespace mcd
