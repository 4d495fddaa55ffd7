#include "controller.hh"

namespace mcd {

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
