#include "online_queue.hh"

#include "common/log.hh"

namespace mcd {

OnlineQueueController::OnlineQueueController(
    const OnlineQueueParams &params, const DvfsTable &table)
    : PointController(table, params.interval, params.scaleFrontEnd,
                      "OnlineQueueParams"),
      prm(params)
{
    // Out-of-range tuning silently degenerates the control law
    // (inverted water marks make decay unreachable) — reject it up
    // front.
    if (!(prm.attackThreshold > 0.0 && prm.attackThreshold < 1.0))
        fatal("OnlineQueueParams: attackThreshold must lie in (0, 1)");
    if (!(prm.idleWater < prm.holdWater && prm.holdWater < prm.highWater))
        fatal("OnlineQueueParams: water marks must satisfy "
              "idleWater < holdWater < highWater");
    if (prm.attackPoints < 1 || prm.decayPoints < 1 ||
        prm.idleDecayPoints < 1) {
        fatal("OnlineQueueParams: attackPoints, decayPoints and "
              "idleDecayPoints must all be >= 1");
    }
}

int
OnlineQueueController::next(int, int at, double u, double prev)
{
    if (u >= prm.highWater)
        return top();
    double du = u - prev;
    if (du > prm.attackThreshold)
        return at + prm.attackPoints;
    if (du < -prm.attackThreshold)
        return at - prm.attackPoints;
    if (u <= prm.idleWater)
        return at - prm.idleDecayPoints;
    if (u <= prm.holdWater)
        return at - prm.decayPoints;
    // Settled: the queue is usefully full but not backed up, so the
    // current operating point is about right.
    return at;
}

} // namespace mcd
