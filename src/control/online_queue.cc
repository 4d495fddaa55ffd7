#include "online_queue.hh"

#include <algorithm>

#include "common/log.hh"

namespace mcd {

OnlineQueueController::OnlineQueueController(
    const OnlineQueueParams &params, const DvfsTable &table_,
    std::uint64_t seed_)
    : prm(params), table(table_), seed(seed_)
{
    // Out-of-range tuning silently degenerates the control law (a
    // zero interval means the controller never fires; inverted water
    // marks make decay unreachable) — reject it up front.
    if (prm.interval == 0)
        fatal("OnlineQueueParams: interval must be > 0");
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
    level.fill(-1);
}

void
OnlineQueueController::observe(const DomainStats &stats, Tick)
{
    if (stats.domain == Domain::FrontEnd && !prm.scaleFrontEnd)
        return;

    int di = domainIndex(stats.domain);
    double u = stats.window.meanOccupancy();

    if (!seen[di]) {
        // First observation: latch the operating point the domain
        // started at; the law needs a previous interval to compare to.
        seen[di] = true;
        level[di] = table.indexNearest(stats.frequency);
        prevOcc[di] = u;
        return;
    }

    int top = table.numPoints() - 1;
    int next = level[di];
    if (u >= prm.highWater) {
        next = top;
    } else {
        double du = u - prevOcc[di];
        if (du > prm.attackThreshold)
            next += prm.attackPoints;
        else if (du < -prm.attackThreshold)
            next -= prm.attackPoints;
        else if (u <= prm.idleWater)
            next -= prm.idleDecayPoints;
        else if (u <= prm.holdWater)
            next -= prm.decayPoints;
        // else: settled — the queue is usefully full but not backed
        // up, so the current operating point is about right.
        next = std::clamp(next, 0, top);
    }
    prevOcc[di] = u;

    if (next != level[di]) {
        level[di] = next;
        request(stats.domain, table.point(next).frequency);
    }
}

} // namespace mcd
