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
 *
 * The builder appends every edge to one flat (from, to, lag) list and
 * then buckets that list by counting into compressed (CSR) successor
 * and predecessor arrays, which the shaker walks in place. Producers
 * are found by seq through a sorted (seq, instruction) array, so the
 * build allocates in proportion to the interval, never to the range
 * of seq values, and a stream reuses its buffers across intervals.
 */

#ifndef MCD_ANALYSIS_DEP_GRAPH_HH
#define MCD_ANALYSIS_DEP_GRAPH_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "cpu/params.hh"
#include "trace/trace.hh"

namespace mcd {

/** The number of FuClass values. */
inline constexpr int numFuClasses = 6;

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
 * The per-interval DAG: events plus CSR successor and predecessor
 * adjacency. Edges are added to a flat list with addEdge() and become
 * visible through succ()/pred() once buildAdjacency() buckets them.
 */
class IntervalGraph
{
  public:
    Tick intervalStart = 0;
    Tick intervalEnd = 0;

    std::vector<DagEvent> events;

    std::size_t size() const { return events.size(); }

    /** Drop the events and edges, keeping every buffer's capacity. */
    void
    clear()
    {
        events.clear();
        arcs.clear();
        succOff.clear();
        predOff.clear();
        succEdges.clear();
        predEdges.clear();
    }

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
        arcs.push_back({from, to, static_cast<std::int32_t>(
            std::min<std::int64_t>(lag, 0x7fffffff))});
    }

    /**
     * Bucket the added edges into the CSR arrays by counting. Each
     * node's edges keep the order they were added in. Every endpoint
     * must name an event.
     */
    void buildAdjacency();

    /** True once buildAdjacency() has seen every added edge and
     *  every event. */
    bool
    hasAdjacency() const
    {
        return succOff.size() == events.size() + 1 &&
            succEdges.size() == arcs.size();
    }

    /** Node @p v's successors (valid once hasAdjacency()). */
    std::span<const DagEdge>
    succ(std::size_t v) const
    {
        return {succEdges.data() + succOff[v], succOff[v + 1] - succOff[v]};
    }

    /** Node @p v's predecessors (valid once hasAdjacency()). */
    std::span<const DagEdge>
    pred(std::size_t v) const
    {
        return {predEdges.data() + predOff[v], predOff[v + 1] - predOff[v]};
    }

    /** Verify acyclicity (test hook; O(V+E)). */
    bool isAcyclic() const;

  private:
    /** One added edge, before bucketing. */
    struct Arc
    {
        std::int32_t from;
        std::int32_t to;
        std::int32_t lag;
    };

    std::vector<Arc> arcs;
    /** Node v's successors are succEdges[succOff[v] .. succOff[v + 1]),
     *  its predecessors likewise in predEdges. */
    std::vector<std::uint32_t> succOff, predOff;
    std::vector<DagEdge> succEdges, predEdges;
};

/** One record for stableRadixSort: a key and the index it orders. */
struct KeyedIndex
{
    std::uint64_t key = 0;
    std::int32_t idx = 0;
};

/**
 * Stable LSD radix sort of @p items by key, ascending or descending.
 * Equal keys keep their input order, so the permutation is exactly
 * the one std::stable_sort gives with < (or >) on the keys. Digits
 * are taken from key - min(key), and a pass whose digit is the same
 * for every item is skipped. @p scratch is resized as needed; reuse
 * it across calls to avoid reallocation.
 */
void stableRadixSort(std::vector<KeyedIndex> &items, bool descending,
                     std::vector<KeyedIndex> &scratch);

/** Configuration for DAG construction. */
struct DepGraphConfig
{
    Tick intervalLength = 50'000'000;   //!< 50K cycles at 1 GHz, in ps
    /** The profiled machine: its queue sizes and functional units. */
    CoreParams core;
    /**
     * The simulator encodes completion times half a clock period
     * early so jittered edge comparisons are robust (see
     * cpu/issue_unit.cc); at the 1 GHz profiling frequency the true
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
    /** Relative per-time power of each domain's events. */
    double domainPower[numDomains] = {0.8, 1.0, 1.15, 1.05};

    /** Units of functional-unit class @p fu in core (0: None). */
    int fuCount(FuClass fu) const;
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
     * it held, but keeping its buffers). Returns false, leaving @p g
     * untouched, once the trace is exhausted.
     */
    bool next(IntervalGraph &g);

  private:
    /** The events one instruction became. */
    struct InstEvents
    {
        std::int32_t execEvent = -1;    //!< execute or addr-calc
        std::int32_t memEvent = -1;     //!< memory access (mem ops)
        bool isLoad = false;
    };

    /** The insts index of the first instruction of this interval
     *  with @p seq, or -1 (producer outside the interval). The search
     *  starts at bySeq[@p hint]; any hint gives the same answer. */
    std::int32_t find(std::uint64_t seq, std::size_t hint) const;

    const std::vector<InstTrace> &trace;
    DepGraphConfig cfg;
    std::size_t pos = 0;

    // Per-interval scratch, kept from one interval to the next.
    std::vector<InstEvents> insts;      //!< in trace order
    std::vector<KeyedIndex> bySeq;      //!< (seq, insts index), by seq
    std::vector<KeyedIndex> byDomain[numDomains];  //!< (start, event)
    std::vector<std::int32_t> byFu[numFuClasses];  //!< events, by FU
    std::vector<KeyedIndex> sortScratch;
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
