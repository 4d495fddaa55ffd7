#include "sched.hh"

namespace mcd {

void
EventScheduler::schedule(Actor *a, Tick when, int priority)
{
    if (when == Actor::never)
        return;
    events.push_back({when, priority, nextSeq++, a});
    if (events.size() > peak)
        peak = events.size();
}

bool
EventScheduler::runOne()
{
    if (events.empty())
        return false;

    // Pop before firing: fire() may schedule new events (edge-latched
    // monitors re-enter themselves at a different priority).
    std::size_t i = earliest();
    Event ev = events[i];
    events[i] = events.back();
    events.pop_back();

    curTick = ev.tick;
    curPriority = ev.priority;
    Tick next = ev.actor->fire(ev.tick);
    if (next != Actor::never)
        schedule(ev.actor, next, ev.priority);
    return true;
}

} // namespace mcd
