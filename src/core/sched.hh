/**
 * @file
 * The deterministic discrete-event scheduler driving a simulated run.
 *
 * Every time-based activity in the simulator — clock edges, DVFS
 * transition service points, controller observations, telemetry
 * sampling, and the watchdog time budget — is an Actor on one
 * EventScheduler. The queue pops in the total order {tick, priority,
 * seq}: ties on tick break on priority, ties on both break on
 * insertion sequence, so the pop order (and therefore every
 * downstream result) is byte-identical regardless of the order actors
 * were scheduled in.
 *
 * Priority bands (see DESIGN.md section 10):
 *
 *  - edgePriority(d) = 2*d for the per-domain clock-edge actors, so
 *    coincident edges process in domain-index order exactly as the
 *    legacy next-edge loop did;
 *  - afterEdgePriority(d) = 2*d + 1 for monitors that must run
 *    immediately after one specific edge and before any same-tick
 *    edge of a later domain (edge-latched events: sampling, the time
 *    budget);
 *  - armPriority (< all edge priorities) for a monitor's initial due
 *    point, which fires before any coincident edge and re-schedules
 *    the monitor onto the first edge at-or-after it.
 */

#ifndef MCD_CORE_SCHED_HH
#define MCD_CORE_SCHED_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mcd {

/**
 * One schedulable activity. fire() performs the work due at @p now
 * and returns the next tick at which the actor wants to run again at
 * the same priority — or Actor::never to leave the queue (the actor
 * may instead re-enter itself via EventScheduler::schedule with a
 * different tick/priority, which is how edge-latched monitors hop
 * from their due point onto the next clock edge).
 */
class Actor
{
  public:
    /** Returned from fire() to deschedule. */
    static constexpr Tick never = ~Tick{0};

    virtual ~Actor() = default;

    virtual Tick fire(Tick now) = 0;
};

/**
 * Deterministic event queue. A run never holds more than six actors
 * (four clock actors plus two monitors), so the queue is an unordered
 * flat array: schedule() appends, and runOne() takes the minimum by a
 * linear scan. At that size the scan beats a binary heap's sifts.
 */
class EventScheduler
{
  public:
    /** Priority of domain @p di's clock-edge actor. */
    static constexpr int edgePriority(int di) { return 2 * di; }

    /** Priority slot directly after domain @p di's edge at one tick. */
    static constexpr int afterEdgePriority(int di) { return 2 * di + 1; }

    /** Monitors' initial due points fire before any coincident edge. */
    static constexpr int armPriority = -1;

    /** Enqueue @p a at @p when. No-op when @p when is Actor::never. */
    void schedule(Actor *a, Tick when, int priority);

    /**
     * Pop the earliest event and fire it; if fire() returns a tick,
     * the actor is re-armed at it with its original priority. Returns
     * false (doing nothing) once the queue is empty.
     */
    bool runOne();

    /** Tick of the earliest pending event (never when empty). */
    Tick nextTick() const
    { return events.empty() ? Actor::never : events[earliest()].tick; }

    /** Priority of the earliest pending event (meaningless when empty). */
    int nextPriority() const
    { return events.empty() ? 0 : events[earliest()].priority; }

    /** Tick of the most recently fired event (never before the first). */
    Tick currentTick() const { return curTick; }

    /** Priority of the most recently fired event. */
    int currentPriority() const { return curPriority; }

    bool empty() const { return events.empty(); }
    std::size_t size() const { return events.size(); }

    /** Pre-size the queue (the actor population is known up front). */
    void reserve(std::size_t n) { events.reserve(n); }

    /** Largest queue size ever observed (pre-sizing proof). */
    std::size_t peakSize() const { return peak; }

    /** Drop every pending event (between runs). */
    void clear() { events.clear(); }

  private:
    struct Event
    {
        Tick tick;
        int priority;
        std::uint64_t seq;
        Actor *actor;

        /** Total order: earliest tick, then priority, then FIFO. */
        bool
        before(const Event &o) const
        {
            if (tick != o.tick)
                return tick < o.tick;
            if (priority != o.priority)
                return priority < o.priority;
            return seq < o.seq;
        }
    };

    /** Index of the earliest event. Requires a non-empty queue. */
    std::size_t
    earliest() const
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < events.size(); ++i) {
            if (events[i].before(events[best]))
                best = i;
        }
        return best;
    }

    std::vector<Event> events;
    std::size_t peak = 0;
    std::uint64_t nextSeq = 0;
    Tick curTick = Actor::never;
    int curPriority = 0;
};

} // namespace mcd

#endif // MCD_CORE_SCHED_HH
