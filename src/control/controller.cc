#include "controller.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"

namespace mcd {

PointController::PointController(const DvfsTable &table_, Tick interval_,
                                 bool scaleFrontEnd_, const char *who)
    : table(table_), interval(interval_), scaleFrontEnd(scaleFrontEnd_)
{
    // A zero interval would observe at every edge instead of once per
    // control interval.
    if (interval == 0)
        fatal(std::string(who) + ": interval must be > 0");
    level.fill(-1);
}

void
PointController::observe(const DomainStats &stats, Tick)
{
    if (stats.domain == Domain::FrontEnd && !scaleFrontEnd)
        return;

    int di = domainIndex(stats.domain);
    double u = stats.window.meanOccupancy();
    int to;
    if (level[di] < 0) {
        level[di] = table.indexNearest(stats.frequency);
        to = first(di, level[di]);
    } else {
        to = std::clamp(next(di, level[di], u, prevOcc[di]), 0, top());
    }
    prevOcc[di] = u;

    if (to != level[di]) {
        level[di] = to;
        request(stats.domain, table.point(to).frequency);
    }
}

ScheduleController::ScheduleController(const ReconfigSchedule &schedule)
{
    // Split per domain for cheap cursor-based emission, preserving
    // schedule order within each domain.
    for (const ReconfigEntry &e : schedule.all())
        perDomain[domainIndex(e.domain)].push_back(e);
}

void
ScheduleController::observe(const DomainStats &stats, Tick now)
{
    int di = domainIndex(stats.domain);
    const auto &list = perDomain[di];
    std::size_t &cur = cursor[di];
    while (cur < list.size() && list[cur].when <= now) {
        request(stats.domain, list[cur].frequency);
        ++cur;
    }
}

Tick
ScheduleController::nextObservation(Domain d, Tick) const
{
    int di = domainIndex(d);
    const auto &list = perDomain[di];
    return cursor[di] < list.size() ? list[cursor[di]].when : neverTick;
}

std::size_t
ScheduleController::pendingEntries() const
{
    std::size_t n = 0;
    for (int d = 0; d < numDomains; ++d)
        n += perDomain[d].size() - cursor[d];
    return n;
}

StaticController::StaticController(
    const std::array<Hertz, numDomains> &targets)
    : target(targets)
{}

void
StaticController::observe(const DomainStats &stats, Tick)
{
    int di = domainIndex(stats.domain);
    if (sent[di])
        return;
    sent[di] = true;
    if (target[di] > 0.0 && target[di] != stats.frequency)
        request(stats.domain, target[di]);
}

} // namespace mcd
