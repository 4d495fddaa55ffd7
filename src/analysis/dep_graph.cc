#include "dep_graph.hh"

#include <algorithm>
#include <unordered_map>

namespace mcd {

bool
IntervalGraph::isAcyclic() const
{
    // Kahn's algorithm.
    std::vector<int> indeg(events.size(), 0);
    for (std::size_t i = 0; i < events.size(); ++i)
        for (const DagEdge &s : out[i])
            ++indeg[s.to];
    std::vector<std::int32_t> ready;
    for (std::size_t i = 0; i < events.size(); ++i)
        if (indeg[i] == 0)
            ready.push_back(static_cast<std::int32_t>(i));
    std::size_t seen = 0;
    while (!ready.empty()) {
        std::int32_t v = ready.back();
        ready.pop_back();
        ++seen;
        for (const DagEdge &s : out[v]) {
            if (--indeg[s.to] == 0)
                ready.push_back(s.to);
        }
    }
    return seen == events.size();
}

namespace {

struct InstEvents
{
    std::int32_t execEvent = -1;    //!< execute or addr-calc
    std::int32_t memEvent = -1;     //!< memory access (mem ops)
    bool isLoad = false;
};

} // namespace

IntervalGraphStream::IntervalGraphStream(
    const std::vector<InstTrace> &trace, const DepGraphConfig &cfg)
    : trace(trace), cfg(cfg)
{}

bool
IntervalGraphStream::next(IntervalGraph &g)
{
    if (pos >= trace.size())
        return false;

    const Tick len = cfg.intervalLength;
    // Interval of the first remaining instruction.
    Tick k = trace[pos].dispatchTime / len;
    g = IntervalGraph{};
    g.intervalStart = k * len;
    g.intervalEnd = (k + 1) * len;

    // Collect this interval's instructions.
    std::size_t first = pos;
    while (pos < trace.size() && trace[pos].dispatchTime / len == k)
        ++pos;

    std::unordered_map<std::uint64_t, InstEvents> bySeq;
    bySeq.reserve(pos - first);
    // Worst case two events (exec + mem) per instruction.
    g.events.reserve(2 * (pos - first));

    auto addEvent = [&](Domain d, Tick s, Tick e,
                        FuClass fu) -> std::int32_t {
        DagEvent ev;
        ev.domain = d;
        ev.start = s;
        ev.end = e > s ? e : s + 1;
        ev.origDuration = ev.end - ev.start;
        ev.floorStart = ev.start;   // patched to dispatch below
        ev.power = cfg.domainPower[domainIndex(d)];
        ev.fu = fu;
        g.events.push_back(ev);
        return static_cast<std::int32_t>(g.events.size() - 1);
    };

    for (std::size_t i = first; i < pos; ++i) {
        const InstTrace &t = trace[i];
        if (t.op == Opcode::NOP || t.op == Opcode::HALT)
            continue;
        InstEvents ie;
        Tick skew = cfg.completionSkew;
        if (t.isMem()) {
            ie.execEvent = addEvent(Domain::Integer, t.issueTime,
                                    t.execDone + skew,
                                    FuClass::IntAlu);
            ie.memEvent = addEvent(Domain::LoadStore, t.memIssue,
                                   t.memDone + skew,
                                   FuClass::MemPort);
            DagEvent &me = g.events[ie.memEvent];
            me.fixedPortion =
                std::min(t.memFixed, me.origDuration - 1);
            ie.isLoad = t.isLoadOp();
        } else {
            ie.execEvent = addEvent(execDomain(t.op), t.issueTime,
                                    t.execDone + skew,
                                    fuClass(t.op));
        }
        // Events cannot be rescheduled before their dispatch: the
        // front end is pinned at full speed (paper Section 3.2).
        g.events[ie.execEvent].floorStart = t.dispatchTime;
        // ROB occupancy: this instruction must complete before the
        // (fixed-speed) front end dispatches entry i + robSize
        // (derated by the occupancy margin).
        std::size_t robPeer = i + static_cast<std::size_t>(
            cfg.robSize * cfg.occupancyMargin);
        if (robPeer < trace.size()) {
            Tick ceil = trace[robPeer].dispatchTime;
            g.events[ie.execEvent].endCeiling = ceil;
            if (ie.memEvent >= 0)
                g.events[ie.memEvent].endCeiling = ceil;
        }
        bySeq.emplace(t.seq, ie);
    }

    // A partial final interval must not pretend to own a full
    // interval's dilation budget: clamp its end to the actual end
    // of observed work.
    Tick maxEnd = g.intervalStart + 1;
    for (const DagEvent &ev : g.events)
        maxEnd = std::max(maxEnd, ev.end);
    g.intervalEnd = std::min(g.intervalEnd, maxEnd);

    g.out.resize(g.events.size());
    g.in.resize(g.events.size());

    // Data and intra-instruction dependences.
    auto resultEvent = [&](std::uint64_t seq) -> std::int32_t {
        auto it = bySeq.find(seq);
        if (it == bySeq.end())
            return -1;  // producer outside the interval
        const InstEvents &p = it->second;
        return p.isLoad ? p.memEvent : p.execEvent;
    };

    // Control dependences: a mispredicted branch stalls fetch, so
    // every younger instruction's first event depends on the
    // branch's execute event (until the next such barrier).
    std::int32_t controlBarrier = -1;

    for (std::size_t i = first; i < pos; ++i) {
        const InstTrace &t = trace[i];
        auto it = bySeq.find(t.seq);
        if (it == bySeq.end())
            continue;
        const InstEvents &ie = it->second;
        if (controlBarrier >= 0) {
            // The pipeline-refill gap after a misprediction is
            // front-end time; carry it as a fixed lag so the
            // shaker cannot treat it as slack.
            std::int64_t gap =
                static_cast<std::int64_t>(
                    g.events[ie.execEvent].start) -
                static_cast<std::int64_t>(
                    g.events[controlBarrier].end);
            g.addEdge(controlBarrier, ie.execEvent, gap);
        }
        if (t.mispredicted)
            controlBarrier = ie.execEvent;
        if (t.dep1)
            g.addEdge(resultEvent(t.dep1), ie.execEvent);
        if (t.dep2) {
            // For stores, dep2 is the store data, consumed by the
            // memory-access event; otherwise it feeds execute.
            std::int32_t target =
                (t.isMem() && !t.isLoadOp() && ie.memEvent >= 0)
                ? ie.memEvent : ie.execEvent;
            g.addEdge(resultEvent(t.dep2), target);
        }
        if (ie.memEvent >= 0)
            g.addEdge(ie.execEvent, ie.memEvent);
    }

    // Functional dependences (shared units) and structural
    // dependences (finite queues), per domain, in start order.
    std::vector<std::int32_t> byDomain[numDomains];
    for (auto &v : byDomain)
        v.reserve(g.events.size());
    for (std::size_t e = 0; e < g.events.size(); ++e)
        byDomain[domainIndex(g.events[e].domain)].push_back(
            static_cast<std::int32_t>(e));
    for (int d = 0; d < numDomains; ++d) {
        auto &v = byDomain[d];
        std::stable_sort(v.begin(), v.end(),
                         [&](std::int32_t a, std::int32_t b) {
                             return g.events[a].start <
                                 g.events[b].start;
                         });
    }

    auto queueCap = [&](Domain d) {
        switch (d) {
          case Domain::Integer: return cfg.intIssueQueueSize;
          case Domain::FloatingPoint: return cfg.fpIssueQueueSize;
          case Domain::LoadStore: return cfg.lsqSize;
          default: return 0;
        }
    };
    auto deratedCap = [&](Domain d) {
        return static_cast<int>(
            queueCap(d) * cfg.occupancyMargin);
    };

    for (int d = 1; d < numDomains; ++d) {
        const auto &v = byDomain[d];
        int cap = queueCap(static_cast<Domain>(d));
        for (std::size_t i2 = 0; i2 < v.size(); ++i2) {
            if (cap > 0 && i2 >= static_cast<std::size_t>(cap))
                g.addEdge(v[i2 - cap], v[i2]);
            // Queue occupancy: entry i2 must issue before entry
            // i2 + margin*cap can be dispatched into the queue.
            int dcap = deratedCap(static_cast<Domain>(d));
            if (dcap > 0 &&
                i2 + dcap < v.size()) {
                DagEvent &ev = g.events[v[i2]];
                ev.startCeiling = std::min(
                    ev.startCeiling,
                    g.events[v[i2 + dcap]].floorStart);
            }
        }
        // Same-FU serialization.
        std::unordered_map<int, std::vector<std::int32_t>> byFu;
        for (std::int32_t e : v)
            byFu[static_cast<int>(g.events[e].fu)].push_back(e);
        for (auto &[fu, list] : byFu) {
            int units = cfg.fuCount[fu];
            if (units <= 0)
                continue;
            for (std::size_t i2 = units; i2 < list.size(); ++i2)
                g.addEdge(list[i2 - units], list[i2]);
        }
    }
    return true;
}

std::vector<IntervalGraph>
buildIntervalGraphs(const std::vector<InstTrace> &trace,
                    const DepGraphConfig &cfg)
{
    std::vector<IntervalGraph> graphs;
    if (trace.empty())
        return graphs;
    // Dispatch times are (nearly) monotonic, so the last record bounds
    // the interval count well enough for a one-shot reservation.
    graphs.reserve(static_cast<std::size_t>(
        trace.back().dispatchTime / cfg.intervalLength) + 2);
    IntervalGraphStream stream(trace, cfg);
    IntervalGraph g;
    while (stream.next(g))
        graphs.push_back(std::move(g));
    return graphs;
}

} // namespace mcd
