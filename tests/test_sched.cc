/**
 * @file
 * Tests for the deterministic discrete-event scheduler driving the
 * run loop (core/sched.hh): total event ordering independent of
 * insertion order, re-arming via fire(), and the arm/defer hop
 * pattern the monitor actors use.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "core/sched.hh"

namespace mcd {
namespace {

/** Records its firings into a shared log and replays a schedule. */
struct LogActor final : Actor
{
    std::string name;
    std::vector<std::string> *log = nullptr;
    std::vector<Tick> replies;  //!< consumed front-to-back by fire()

    LogActor() = default;
    LogActor(std::string n, std::vector<std::string> *l)
        : name(std::move(n)), log(l)
    {}

    Tick
    fire(Tick now) override
    {
        log->push_back(name + "@" + std::to_string(now));
        if (replies.empty())
            return never;
        Tick next = replies.front();
        replies.erase(replies.begin());
        return next;
    }
};

TEST(EventScheduler, PopsInTickOrder)
{
    EventScheduler sched;
    std::vector<std::string> log;
    LogActor a{"a", &log}, b{"b", &log}, c{"c", &log};

    sched.schedule(&b, 200, 0);
    sched.schedule(&c, 300, 0);
    sched.schedule(&a, 100, 0);

    while (sched.runOne()) {}
    EXPECT_EQ(log, (std::vector<std::string>{"a@100", "b@200", "c@300"}));
}

TEST(EventScheduler, TieBreaksOnPriorityThenSeq)
{
    // Same tick: priority decides; same priority: insertion order
    // decides — so the pop order is a total order and results cannot
    // depend on how the heap happened to be built.
    EventScheduler sched;
    std::vector<std::string> log;
    LogActor lo{"lo", &log}, hi{"hi", &log};
    LogActor s1{"s1", &log}, s2{"s2", &log};

    sched.schedule(&lo, 500, 4);
    sched.schedule(&hi, 500, -1);
    sched.schedule(&s1, 500, 2);
    sched.schedule(&s2, 500, 2);    // same (tick, priority): FIFO

    while (sched.runOne()) {}
    EXPECT_EQ(log, (std::vector<std::string>{
        "hi@500", "s1@500", "s2@500", "lo@500"}));
}

TEST(EventScheduler, InsertionOrderInvariance)
{
    // Any permutation of schedule() calls yields the same pop order
    // (distinct priorities make the order unique).
    struct Item { Tick t; int pri; const char *n; };
    std::vector<Item> items = {
        {100, 0, "e0"}, {100, 1, "m0"}, {100, 2, "e1"},
        {250, 0, "e2"}, {250, -1, "arm"},
    };
    std::vector<std::string> want;
    std::vector<std::vector<int>> perms = {
        {0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 4, 0, 3, 1}};

    for (const auto &perm : perms) {
        EventScheduler sched;
        std::vector<std::string> log;
        std::vector<LogActor> actors(items.size());
        for (int i : perm) {
            actors[i].name = items[i].n;
            actors[i].log = &log;
            sched.schedule(&actors[i], items[i].t, items[i].pri);
        }
        while (sched.runOne()) {}
        if (want.empty())
            want = log;
        EXPECT_EQ(log, want);
    }
    EXPECT_EQ(want, (std::vector<std::string>{
        "e0@100", "m0@100", "e1@100", "arm@250", "e2@250"}));
}

TEST(EventScheduler, FireReturnReArmsAtSamePriority)
{
    EventScheduler sched;
    std::vector<std::string> log;
    LogActor a{"a", &log};
    a.replies = {200, 300};     // two re-arms, then done

    sched.schedule(&a, 100, 3);
    while (sched.runOne()) {}
    EXPECT_EQ(log, (std::vector<std::string>{"a@100", "a@200", "a@300"}));
    EXPECT_TRUE(sched.empty());
}

TEST(EventScheduler, NeverIsNoOp)
{
    EventScheduler sched;
    std::vector<std::string> log;
    LogActor a{"a", &log};
    sched.schedule(&a, Actor::never, 0);
    EXPECT_TRUE(sched.empty());
    EXPECT_FALSE(sched.runOne());
}

/** Arm/defer monitor: hops itself onto a later (tick, pri) slot. */
struct HopActor final : Actor
{
    EventScheduler *sched = nullptr;
    std::vector<std::string> *log = nullptr;
    Tick hopTick = 0;
    int hopPri = 0;
    bool deferred = false;

    Tick
    fire(Tick now) override
    {
        if (!deferred) {
            deferred = true;
            log->push_back("arm@" + std::to_string(now));
            sched->schedule(this, hopTick, hopPri);
            return never;
        }
        log->push_back("work@" + std::to_string(now));
        return never;
    }
};

TEST(EventScheduler, ScheduleFromFireIsSafe)
{
    // The monitor pattern: fire() re-enters schedule() while runOne()
    // is mid-flight; the freshly scheduled event must land in its
    // correct slot (after the same-tick edge, before later edges).
    EventScheduler sched;
    std::vector<std::string> log;
    LogActor edge1{"edge1", &log}, edge2{"edge2", &log};
    HopActor mon;
    mon.sched = &sched;
    mon.log = &log;
    mon.hopTick = 400;
    mon.hopPri = EventScheduler::afterEdgePriority(0);

    sched.schedule(&edge1, 400, EventScheduler::edgePriority(0));
    sched.schedule(&edge2, 400, EventScheduler::edgePriority(1));
    sched.schedule(&mon, 350, EventScheduler::armPriority);

    while (sched.runOne()) {}
    EXPECT_EQ(log, (std::vector<std::string>{
        "arm@350", "edge1@400", "work@400", "edge2@400"}));
}

TEST(EventScheduler, CurrentAndNextAccessors)
{
    EventScheduler sched;
    std::vector<std::string> log;
    LogActor a{"a", &log}, b{"b", &log};
    sched.schedule(&a, 100, 2);
    sched.schedule(&b, 100, 3);

    EXPECT_EQ(sched.nextTick(), 100u);
    EXPECT_EQ(sched.nextPriority(), 2);
    ASSERT_TRUE(sched.runOne());
    EXPECT_EQ(sched.currentTick(), 100u);
    EXPECT_EQ(sched.currentPriority(), 2);
    EXPECT_EQ(sched.nextPriority(), 3);
}

TEST(EventScheduler, PriorityBandHelpers)
{
    // Band layout: arm < edge(d) < afterEdge(d) < edge(d+1).
    EXPECT_LT(EventScheduler::armPriority, EventScheduler::edgePriority(0));
    for (int d = 0; d < 3; ++d) {
        EXPECT_LT(EventScheduler::edgePriority(d),
                  EventScheduler::afterEdgePriority(d));
        EXPECT_LT(EventScheduler::afterEdgePriority(d),
                  EventScheduler::edgePriority(d + 1));
    }
}

/**
 * The scheduler as a binary heap: std::priority_queue over the same
 * total order (tick, priority, seq), with the same pop-fire-re-arm
 * step. The oracle of the random differential test.
 */
class ReferenceScheduler
{
  public:
    void
    schedule(Actor *a, Tick when, int priority)
    {
        if (when != Actor::never)
            q.push({when, priority, seq++, a});
    }

    bool
    runOne()
    {
        if (q.empty())
            return false;
        Event ev = q.top();
        q.pop();
        Tick next = ev.actor->fire(ev.tick);
        if (next != Actor::never)
            schedule(ev.actor, next, ev.priority);
        return true;
    }

    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }
    Tick nextTick() const { return q.empty() ? Actor::never : q.top().tick; }
    int nextPriority() const { return q.empty() ? 0 : q.top().priority; }

  private:
    struct Event
    {
        Tick tick;
        int priority;
        std::uint64_t seq;
        Actor *actor;

        /** Reversed, so the priority_queue's top is the minimum. */
        bool
        operator<(const Event &o) const
        {
            return std::tie(o.tick, o.priority, o.seq) <
                std::tie(tick, priority, seq);
        }
    };

    std::priority_queue<Event> q;
    std::uint64_t seq = 0;
};

/**
 * Fires by a fixed pseudo-random script keyed on (seed, id, firing):
 * logs itself, sometimes schedules another actor of its set from
 * inside fire() (same tick included), and re-arms after 0..40 ticks
 * or leaves the queue.
 */
struct ScriptedActor final : Actor
{
    int id = 0;
    std::uint64_t seed = 0;
    std::uint64_t firings = 0;
    std::vector<std::string> *log = nullptr;
    std::vector<ScriptedActor> *peers = nullptr;
    std::function<void(Actor *, Tick, int)> schedule;

    Tick
    fire(Tick now) override
    {
        std::uint64_t st = seed ^ (static_cast<std::uint64_t>(id) << 32) ^
            firings++;
        std::uint64_t roll = splitmix64(st);
        log->push_back(std::to_string(id) + "@" + std::to_string(now));
        if (roll % 4 == 0) {
            ScriptedActor &other = (*peers)[(roll >> 8) % peers->size()];
            int pri = static_cast<int>((roll >> 16) % 9) - 1;
            schedule(&other, now + (roll >> 24) % 3, pri);
        }
        if (roll % 8 == 1)
            return never;
        return now + (roll >> 32) % 41;
    }
};

TEST(EventScheduler, MatchesBinaryHeapOnRandomSequences)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        std::vector<std::string> logA, logB;
        std::vector<ScriptedActor> actorsA(6), actorsB(6);
        EventScheduler flat;
        ReferenceScheduler heap;
        for (int i = 0; i < 6; ++i) {
            for (auto *set : {&actorsA, &actorsB}) {
                ScriptedActor &a = (*set)[i];
                a.id = i;
                a.seed = seed;
                a.peers = set;
            }
            actorsA[i].log = &logA;
            actorsB[i].log = &logB;
            actorsA[i].schedule = [&flat](Actor *x, Tick t, int p) {
                flat.schedule(x, t, p);
            };
            actorsB[i].schedule = [&heap](Actor *x, Tick t, int p) {
                heap.schedule(x, t, p);
            };
        }
        Rng rng(seed);
        for (int i = 0; i < 6; ++i) {
            Tick t = rng.uniformInt(20);
            int pri = static_cast<int>(rng.uniformInt(9)) - 1;
            flat.schedule(&actorsA[i], t, pri);
            heap.schedule(&actorsB[i], t, pri);
        }
        for (int step = 0; step < 5000; ++step) {
            ASSERT_EQ(flat.size(), heap.size()) << "seed " << seed;
            ASSERT_EQ(flat.nextTick(), heap.nextTick());
            if (!flat.empty()) {
                ASSERT_EQ(flat.nextPriority(), heap.nextPriority());
            }
            bool ranA = flat.runOne();
            bool ranB = heap.runOne();
            ASSERT_EQ(ranA, ranB);
            if (!ranA)
                break;
        }
        EXPECT_EQ(logA, logB) << "seed " << seed;
    }
}

} // namespace
} // namespace mcd
