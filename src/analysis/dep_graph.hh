/**
 * @file
 * The dependence DAG over primitive events (paper Section 3.2).
 *
 * For each 50 K-cycle interval of the profiling trace we materialize
 * the back-end events (execute / address-calc / memory-access) with
 * their observed start and end times, connected by:
 *
 *  - data dependences (register producers -> consumers, address-calc
 *    -> memory-access, load memory-access -> dependent execute);
 *  - functional dependences through shared hardware units (event k
 *    depends on event k - numUnits of the same FU class); and
 *  - structural dependences through finite queues (event k depends on
 *    event k - queueSize in the same domain).
 *
 * Front-end events are not scalable (the front end is pinned at
 * 1 GHz, paper Section 3.2) and enter only as fixed anchors via each
 * event's dispatch time.
 */

#ifndef MCD_ANALYSIS_DEP_GRAPH_HH
#define MCD_ANALYSIS_DEP_GRAPH_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "trace/trace.hh"

namespace mcd {

/** One scalable event in the DAG. */
struct DagEvent
{
    Domain domain = Domain::Integer;
    Tick start = 0;         //!< observed start (may move later/earlier)
    Tick end = 0;           //!< observed end
    Tick origDuration = 0;  //!< duration before any stretching
    /** Portion of the duration owned by main memory: stretching and
     *  frequency scaling apply only to duration - fixedPortion. */
    Tick fixedPortion = 0;
    Tick floorStart = 0;    //!< dispatch anchor: cannot start earlier
    /** Structural ceilings: deferring this event further would stall
     *  the (fixed-speed) front end through ROB / issue-queue
     *  occupancy, so the shaker may not push it past these. */
    Tick startCeiling = ~Tick(0);
    Tick endCeiling = ~Tick(0);
    double stretch = 1.0;   //!< current stretch factor (1..maxStretch)
    double power = 0.0;     //!< current power factor
    FuClass fu = FuClass::None;
};

/** A dependence edge endpoint with a fixed latency (lag). */
struct DagEdge
{
    std::int32_t to = -1;   //!< event index (successor or predecessor)
    std::int32_t lag = 0;   //!< fixed picoseconds between the events
};

/**
 * The per-interval DAG: events plus in/out adjacency.
 */
class IntervalGraph
{
  public:
    Tick intervalStart = 0;
    Tick intervalEnd = 0;

    std::vector<DagEvent> events;
    std::vector<std::vector<DagEdge>> out;      //!< successors
    std::vector<std::vector<DagEdge>> in;       //!< predecessors

    std::size_t size() const { return events.size(); }

    /**
     * Add an edge producer -> consumer (ignores self/negative).
     *
     * @param lag fixed latency the edge must preserve: the successor
     *        cannot start before producer end + lag. Used for
     *        pipeline-refill delays after mispredictions, which are
     *        front-end-bound and therefore not stretchable slack.
     */
    void
    addEdge(std::int32_t from, std::int32_t to, std::int64_t lag = 0)
    {
        if (from < 0 || to < 0 || from == to)
            return;
        if (lag < 0)
            lag = 0;
        auto l32 = static_cast<std::int32_t>(
            std::min<std::int64_t>(lag, 0x7fffffff));
        out[from].push_back({to, l32});
        in[to].push_back({from, l32});
    }

    /** Verify acyclicity (test hook; O(V+E)). */
    bool isAcyclic() const;
};

/** Configuration for DAG construction. */
struct DepGraphConfig
{
    Tick intervalLength = 50'000'000;   //!< 50K cycles at 1 GHz, in ps
    int intIssueQueueSize = 20;
    int fpIssueQueueSize = 15;
    int lsqSize = 64;
    int robSize = 80;
    /**
     * The simulator encodes completion times half a clock period
     * early so jittered edge comparisons are robust (see
     * cpu/pipeline.cc); at the 1 GHz profiling frequency the true
     * result-latch time is this much later than the recorded one.
     */
    Tick completionSkew = 500;
    /**
     * Safety margin on the occupancy ceilings: the shaker may consume
     * only this fraction of each queue's deferral headroom, so the
     * rescheduled world keeps slack against jitter and
     * synchronization quantization.
     */
    double occupancyMargin = 0.5;
    int fuCount[6] = {0, 4, 1, 2, 1, 2};    //!< indexed by FuClass
    /** Relative per-time power of each domain's events. */
    double domainPower[numDomains] = {0.8, 1.0, 1.15, 1.05};
};

/**
 * Slice a trace into intervals and build their DAGs one at a time, in
 * interval order. A consumer that shakes each graph before asking for
 * the next holds a single interval's graph at once instead of the
 * whole trace's.
 */
class IntervalGraphStream
{
  public:
    /** @p trace must outlive the stream. */
    IntervalGraphStream(const std::vector<InstTrace> &trace,
                        const DepGraphConfig &cfg);

    /**
     * Build the next interval's graph into @p g (replacing whatever
     * it held). Returns false, leaving @p g untouched, once the trace
     * is exhausted.
     */
    bool next(IntervalGraph &g);

  private:
    const std::vector<InstTrace> &trace;
    DepGraphConfig cfg;
    std::size_t pos = 0;
};

/**
 * Slice a trace into intervals and build one DAG per interval (the
 * whole IntervalGraphStream, materialized).
 */
std::vector<IntervalGraph>
buildIntervalGraphs(const std::vector<InstTrace> &trace,
                    const DepGraphConfig &cfg);

} // namespace mcd

#endif // MCD_ANALYSIS_DEP_GRAPH_HH
