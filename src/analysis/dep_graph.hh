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
 * The graph stores its events as columns, one array per field the
 * shaker reads or writes, and the shaker works on them in place: one
 * copy of each event, sized exactly. The builder appends every edge
 * to one flat (from, to, lag) list and then buckets that list by
 * counting into compressed (CSR) successor and predecessor arrays,
 * which the shaker walks; the list is freed once bucketed. Producers
 * are found by seq through a sorted (seq, instruction) array, so the
 * build allocates in proportion to the interval, never to the range
 * of seq values. The builder's per-interval scratch lives only inside
 * buildIntervalGraph() and is freed before the edges are bucketed, so
 * it never coexists with the CSR arrays or the shaker's own buffers.
 *
 * An interval is a run of consecutive commit-order records whose
 * dispatch times fall in one interval of the clock; a run that
 * returns to an earlier interval after a different one is an interval
 * of its own. buildIntervalGraph() builds one from its records plus
 * the robLookahead() records after them, which its ROB ceilings read.
 * IntervalGraphStream cuts a whole trace this way; a profiling run
 * can cut its records as they commit instead (TraceCollector).
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

/**
 * One scalable event, as a value: the form in which events are added
 * to a graph by hand (tests). The graph itself holds each field in a
 * column of its own.
 */
struct DagEvent
{
    Domain domain = Domain::Integer;
    Tick start = 0;         //!< observed start (may move later/earlier)
    Tick end = 0;           //!< observed end
    double stretch = 1.0;   //!< current stretch factor (1..maxStretch)
    double power = 0.0;     //!< current power factor
    /** Earliest start: the later of the interval start and the
     *  dispatch anchor (the front end runs at full speed). */
    Tick inBound = 0;
    /** Latest end: the earlier of the interval end and the ROB
     *  ceiling (deferring the event further would stall the
     *  fixed-speed front end). */
    Tick outBound = ~Tick(0);
    /** Issue-queue ceiling: the shaker may not move the event's
     *  start past it. */
    Tick startCeiling = ~Tick(0);
    /** Picoseconds of the original duration that stretching and
     *  frequency scaling apply to, and the portion owned by main
     *  memory, which they do not. */
    double scalable = 0.0;
    double fixed = 0.0;
    double basePower = 0.0; //!< power factor before any stretching
};

/** A dependence edge endpoint with a fixed latency (lag). */
struct DagEdge
{
    std::int32_t to = -1;   //!< event index (successor or predecessor)
    std::int32_t lag = 0;   //!< fixed picoseconds between the events
};

/**
 * The per-interval DAG: event columns plus CSR successor and
 * predecessor adjacency. Column i of every event array describes
 * event i; all of them hold size() entries. Edges are added to a flat
 * list with addEdge() and become visible through succ()/pred() once
 * buildAdjacency() buckets them.
 */
class IntervalGraph
{
  public:
    Tick intervalStart = 0;
    Tick intervalEnd = 0;

    // The shaker's working state, mutated in place.
    std::vector<Tick> start, end;
    std::vector<double> stretch, power;
    // Per-event constants (see DagEvent).
    std::vector<Tick> inBound, outBound, startCeiling;
    std::vector<double> scalable, fixed, basePower;
    std::vector<Domain> domain;

    std::size_t size() const { return start.size(); }

    /** Size every event column to @p n (new events are zeroed). */
    void resize(std::size_t n);

    /** Append @p ev; returns its index. */
    std::int32_t addEvent(const DagEvent &ev);

    /** Drop the events (keeping the columns' capacity) and free the
     *  edges. */
    void clear();

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
     * Bucket the added edges, together with any bucketed before, into
     * the CSR arrays by counting, and free the added list. Each node's
     * successors keep the order they were added in. Every endpoint
     * must name an event.
     */
    void buildAdjacency();

    /** True once buildAdjacency() has seen every added edge and
     *  every event. */
    bool
    hasAdjacency() const
    {
        return arcs.empty() && succOff.size() == size() + 1;
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
 * Records past an interval's last one that its ROB ceilings read:
 * record i's events must end before record i + robLookahead(cfg)
 * dispatches.
 */
std::size_t robLookahead(const DepGraphConfig &cfg);

/**
 * The end of the interval that starts at record @p first of
 * @p trace: the index of the first later record in another interval
 * of @p length picoseconds, or trace.size().
 */
std::size_t intervalEnd(std::span<const InstTrace> trace,
                        std::size_t first, Tick length);

/**
 * Build one interval's graph into @p g (replacing whatever it held,
 * but keeping its columns' capacity). The first @p count (at least
 * one) of @p records are the interval's, in commit order; the rest
 * are the records that follow them, of which the ROB ceilings read
 * the first robLookahead(cfg). Fewer than that means the trace ends
 * there, and ceilings past its end stay open.
 */
void buildIntervalGraph(std::span<const InstTrace> records,
                        std::size_t count, const DepGraphConfig &cfg,
                        IntervalGraph &g);

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
     * it held, but keeping its columns' capacity). Returns false,
     * leaving @p g untouched, once the trace is exhausted.
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
