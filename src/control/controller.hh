/**
 * @file
 * The pluggable DVFS control plane.
 *
 * A DvfsController is the policy half of dynamic frequency/voltage
 * scaling: the simulator (McdProcessor) calls observe() with a
 * per-domain utilization snapshot at domain-clock edges and then
 * drains requests(), forwarding each request to the matching domain's
 * DomainDvfs transition engine. The controller never touches the
 * hardware model directly, so new policies — offline schedules,
 * static pins, online feedback loops, learned or coordinated
 * policies — need no processor changes.
 *
 * Controllers are stateful and single-run: construct one per
 * simulated processor run.
 */

#ifndef MCD_CONTROL_CONTROLLER_HH
#define MCD_CONTROL_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "analysis/schedule.hh"
#include "clock/operating_points.hh"
#include "common/types.hh"
#include "cpu/pipeline_stats.hh"

namespace mcd {

/**
 * One domain-edge observation: the windowed occupancy of the domain's
 * primary instruction queue (ROB for the front end, issue queues for
 * the execution domains, LSQ for load/store) since the previous
 * observation of the same domain, plus instantaneous state.
 */
struct DomainStats
{
    Domain domain = Domain::Integer;
    OccupancyWindow window;             //!< the queue since last time
    Hertz frequency = 0.0;              //!< current domain frequency
};

/** One operating-point request produced by a controller. */
struct FreqRequest
{
    Domain domain = Domain::Integer;
    Hertz frequency = 0.0;
};

/**
 * Interface of every frequency-control policy.
 *
 * Protocol, per domain-clock edge of domain d (MCD runs only):
 *
 *   1. the processor advances d's DVFS transition engine;
 *   2. if the edge has reached the time nextObservation() returned
 *      after d's last observation (d's first edge always has), the
 *      processor calls observe() with d's stats;
 *   3. the processor forwards every pending request to the matching
 *      domain's transition engine and clears the list.
 *
 * By default the next observation is samplePeriod() after the last
 * one; samplePeriod() == 0 means "observe at every edge".
 */
class DvfsController
{
  public:
    virtual ~DvfsController() = default;

    virtual const char *name() const = 0;

    /** Minimum picoseconds between observations of one domain. */
    virtual Tick samplePeriod() const { return 0; }

    /**
     * Given an observation of a domain at @p now, the earliest edge
     * time at which its next observation can matter; observe() runs at
     * the domain's first edge at or after it. neverTick stops
     * observing the domain.
     */
    virtual Tick
    nextObservation(Domain, Tick now) const
    {
        return now + samplePeriod();
    }

    /** Digest one observation; queue requests via request(). */
    virtual void observe(const DomainStats &stats, Tick now) = 0;

    /** Requests produced since the last clearRequests(). */
    const std::vector<FreqRequest> &requests() const { return pending; }

    /** Drop (already forwarded) requests, keeping capacity. */
    void clearRequests() { pending.clear(); }

    /** Total requests emitted over the controller's lifetime. */
    std::uint64_t requestsIssued() const { return issued; }

  protected:
    void
    request(Domain d, Hertz f)
    {
        pending.push_back({d, f});
        ++issued;
    }

  private:
    std::vector<FreqRequest> pending;
    std::uint64_t issued = 0;
};

/**
 * The loop every operating-point controller shares; a subclass
 * supplies only its control law.
 *
 * Each interval, observe() reads the mean occupancy of the domain's
 * primary queue. The front end is skipped (the paper pins it) unless
 * scaleFrontEnd is set. A domain's first observation latches the
 * table point nearest its starting frequency and asks first() where
 * to go; every later one asks next(), with this interval's occupancy
 * and the previous one. The loop clamps the answer to the table and
 * requests the point's frequency when it differs from the current
 * one. Laws are deterministic: identical observation sequences
 * produce identical requests.
 */
class PointController : public DvfsController
{
  public:
    Tick samplePeriod() const override { return interval; }
    void observe(const DomainStats &stats, Tick now) override;

    /** Current operating-point index of @p d (test hook; -1 before
     *  the domain's first observation). */
    int pointIndex(Domain d) const { return level[domainIndex(d)]; }

  protected:
    /** Fatal when @p interval is 0, naming @p who (the params type). */
    PointController(const DvfsTable &table, Tick interval,
                    bool scaleFrontEnd, const char *who);

    /** Index of the table's fastest point. */
    int top() const { return table.numPoints() - 1; }

    /** Point for domain @p di at its first observation, where @p at
     *  is the point it started at. The default stays there. */
    virtual int first(int /*di*/, int at) { return at; }

    /** The law: the point domain @p di moves to from @p at, given its
     *  mean queue occupancy @p u this interval and @p prev the one
     *  before. Need not be clamped to the table. */
    virtual int next(int di, int at, double u, double prev) = 0;

  private:
    DvfsTable table;
    Tick interval;
    bool scaleFrontEnd;

    std::array<int, numDomains> level;
    std::array<double, numDomains> prevOcc{};
};

/**
 * Replays an offline ReconfigSchedule (the paper's oracle path).
 *
 * Behavior-preserving by construction: entries for a domain are
 * emitted, in schedule order, at the first edge of that domain whose
 * time is >= the entry time — exactly the cursor walk the processor's
 * old applySchedule() performed. The schedule is not owned and must
 * outlive the controller.
 */
class ScheduleController : public DvfsController
{
  public:
    explicit ScheduleController(const ReconfigSchedule &schedule);

    const char *name() const override { return "schedule"; }
    void observe(const DomainStats &stats, Tick now) override;

    /** The domain's next entry time: earlier edges have nothing to emit. */
    Tick nextObservation(Domain d, Tick now) const override;

    /** Entries not yet emitted (test hook). */
    std::size_t pendingEntries() const;

  private:
    std::array<std::vector<ReconfigEntry>, numDomains> perDomain;
    std::array<std::size_t, numDomains> cursor{};
};

/**
 * Pins each domain at a fixed operating point: one request per domain
 * at its first edge, nothing afterwards. Models statically scaled
 * configurations (and exercises the transition engines' initial ramp
 * when the targets differ from the construction-time frequencies).
 */
class StaticController : public DvfsController
{
  public:
    explicit StaticController(
        const std::array<Hertz, numDomains> &targets);

    const char *name() const override { return "static"; }
    void observe(const DomainStats &stats, Tick now) override;

  private:
    std::array<Hertz, numDomains> target;
    std::array<bool, numDomains> sent{};
};

} // namespace mcd

#endif // MCD_CONTROL_CONTROLLER_HH
