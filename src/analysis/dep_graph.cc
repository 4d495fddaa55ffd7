#include "dep_graph.hh"

#include <algorithm>
#include <array>
#include <string>

#include "common/log.hh"

namespace mcd {

void
IntervalGraph::buildAdjacency()
{
    const std::size_t n = events.size();
    // Count each node's edges into off[v + 1], prefix-sum into bucket
    // starts, scatter in arc order (advancing off[v] to v's bucket
    // end), then shift the offsets back down one slot.
    succOff.assign(n + 1, 0);
    predOff.assign(n + 1, 0);
    for (const Arc &a : arcs) {
        if (static_cast<std::size_t>(a.from) >= n ||
            static_cast<std::size_t>(a.to) >= n)
            panic("IntervalGraph: edge " + std::to_string(a.from) +
                  " -> " + std::to_string(a.to) + " names no event (" +
                  std::to_string(n) + " events)");
        ++succOff[a.from + 1];
        ++predOff[a.to + 1];
    }
    for (std::size_t v = 1; v <= n; ++v) {
        succOff[v] += succOff[v - 1];
        predOff[v] += predOff[v - 1];
    }
    succEdges.resize(arcs.size());
    predEdges.resize(arcs.size());
    for (const Arc &a : arcs) {
        succEdges[succOff[a.from]++] = {a.to, a.lag};
        predEdges[predOff[a.to]++] = {a.from, a.lag};
    }
    for (std::size_t v = n; v > 0; --v) {
        succOff[v] = succOff[v - 1];
        predOff[v] = predOff[v - 1];
    }
    succOff[0] = 0;
    predOff[0] = 0;
}

bool
IntervalGraph::isAcyclic() const
{
    // Kahn's algorithm.
    std::vector<int> indeg(events.size(), 0);
    for (std::size_t i = 0; i < events.size(); ++i)
        for (const DagEdge &s : succ(i))
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
        for (const DagEdge &s : succ(v)) {
            if (--indeg[s.to] == 0)
                ready.push_back(s.to);
        }
    }
    return seen == events.size();
}

void
stableRadixSort(std::vector<KeyedIndex> &items, bool descending,
                std::vector<KeyedIndex> &scratch)
{
    constexpr int digitBits = 11;
    constexpr std::size_t radix = std::size_t{1} << digitBits;
    constexpr int maxDigits = (64 + digitBits - 1) / digitBits;

    const std::size_t n = items.size();
    if (n < 2)
        return;
    std::uint64_t lo = items[0].key;
    std::uint64_t hi = lo;
    for (const KeyedIndex &it : items) {
        lo = std::min(lo, it.key);
        hi = std::max(hi, it.key);
    }
    const std::uint64_t span = hi - lo;
    int digits = 0;
    while (digits < maxDigits && (span >> (digits * digitBits)) != 0)
        ++digits;
    if (digits == 0)
        return;     // all keys equal: already in stable order

    // One scan counts every digit position.
    std::vector<std::uint32_t> counts(digits * radix, 0);
    for (const KeyedIndex &it : items) {
        std::uint64_t k = it.key - lo;
        for (int d = 0; d < digits; ++d)
            ++counts[d * radix + ((k >> (d * digitBits)) & (radix - 1))];
    }

    scratch.resize(n);
    KeyedIndex *src = items.data();
    KeyedIndex *dst = scratch.data();
    std::array<std::uint32_t, radix> next;
    for (int d = 0; d < digits; ++d) {
        const std::uint32_t *c = &counts[d * radix];
        const int shift = d * digitBits;
        if (c[((src[0].key - lo) >> shift) & (radix - 1)] == n)
            continue;   // one bucket holds everything: order unchanged
        // Bucket start offsets, in the requested direction; the scatter
        // below keeps each bucket's items in their current order.
        std::uint32_t sum = 0;
        for (std::size_t b = 0; b < radix; ++b) {
            std::size_t bucket = descending ? radix - 1 - b : b;
            next[bucket] = sum;
            sum += c[bucket];
        }
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t bucket = ((src[i].key - lo) >> shift) & (radix - 1);
            dst[next[bucket]++] = src[i];
        }
        std::swap(src, dst);
    }
    if (src != items.data())
        items.swap(scratch);
}

IntervalGraphStream::IntervalGraphStream(
    const std::vector<InstTrace> &trace, const DepGraphConfig &cfg)
    : trace(trace), cfg(cfg)
{}

std::int32_t
IntervalGraphStream::find(std::uint64_t seq, std::size_t hint) const
{
    // Gallop from bySeq[hint] to bracket the first key >= seq in
    // [lo, hi], then binary-search the bracket.
    const std::size_t n = bySeq.size();
    if (n == 0)
        return -1;
    hint = std::min(hint, n - 1);
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::size_t step = 1;
    if (bySeq[hint].key < seq) {
        lo = hint + 1;
        while (lo + step - 1 < n && bySeq[lo + step - 1].key < seq) {
            lo += step;
            step *= 2;
        }
        hi = std::min(n, lo + step - 1);
    } else {
        hi = hint;
        while (hi >= step && bySeq[hi - step].key >= seq) {
            hi -= step;
            step *= 2;
        }
        lo = hi >= step ? hi - step + 1 : 0;
    }
    auto it = std::lower_bound(
        bySeq.begin() + lo, bySeq.begin() + hi, seq,
        [](const KeyedIndex &k, std::uint64_t s) { return k.key < s; });
    if (it == bySeq.end() || it->key != seq)
        return -1;
    return it->idx;
}

bool
IntervalGraphStream::next(IntervalGraph &g)
{
    if (pos >= trace.size())
        return false;

    const Tick len = cfg.intervalLength;
    // Interval of the first remaining instruction.
    Tick k = trace[pos].dispatchTime / len;
    g.clear();
    g.intervalStart = k * len;
    g.intervalEnd = (k + 1) * len;

    // Collect this interval's instructions.
    std::size_t first = pos;
    while (pos < trace.size() && trace[pos].dispatchTime / len == k)
        ++pos;

    insts.clear();
    bySeq.clear();
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
        const OpInfo &info = opInfo(t.op);
        // NOP and HALT complete in the front end: no back-end event.
        if (info.iq == RegFile::None)
            continue;
        InstEvents ie;
        Tick skew = cfg.completionSkew;
        ie.execEvent = addEvent(info.execDomain, t.issueTime,
                                t.execDone + skew, info.fu);
        if (info.isMem()) {
            ie.memEvent = addEvent(Domain::LoadStore, t.memIssue,
                                   t.memDone + skew,
                                   FuClass::MemPort);
            DagEvent &me = g.events[ie.memEvent];
            me.fixedPortion =
                std::min(t.memFixed, me.origDuration - 1);
            ie.isLoad = t.isLoadOp();
        }
        // Events cannot be rescheduled before their dispatch: the
        // front end is pinned at full speed (paper Section 3.2).
        g.events[ie.execEvent].floorStart = t.dispatchTime;
        // ROB occupancy: this instruction must complete before the
        // (fixed-speed) front end dispatches entry i + robSize
        // (derated by the occupancy margin).
        std::size_t robPeer = i + static_cast<std::size_t>(
            cfg.core.robSize * cfg.occupancyMargin);
        if (robPeer < trace.size()) {
            Tick ceil = trace[robPeer].dispatchTime;
            g.events[ie.execEvent].endCeiling = ceil;
            if (ie.memEvent >= 0)
                g.events[ie.memEvent].endCeiling = ceil;
        }
        bySeq.push_back({t.seq, static_cast<std::int32_t>(insts.size())});
        insts.push_back(ie);
    }
    // Commit order nearly always lists seqs ascending; otherwise a
    // stable sort keeps the first instruction of a duplicated seq
    // first, and find() returns it.
    if (!std::is_sorted(bySeq.begin(), bySeq.end(),
                        [](const KeyedIndex &a, const KeyedIndex &b) {
                            return a.key < b.key;
                        }))
        stableRadixSort(bySeq, /*descending=*/false, sortScratch);

    // A partial final interval must not pretend to own a full
    // interval's dilation budget: clamp its end to the actual end
    // of observed work.
    Tick maxEnd = g.intervalStart + 1;
    for (const DagEvent &ev : g.events)
        maxEnd = std::max(maxEnd, ev.end);
    g.intervalEnd = std::min(g.intervalEnd, maxEnd);

    // Data and intra-instruction dependences. Lookups search from the
    // current instruction's own entry: its producers sit just before.
    std::size_t hint = 0;
    auto resultEvent = [&](std::uint64_t seq) -> std::int32_t {
        std::int32_t p = find(seq, hint);
        if (p < 0)
            return -1;  // producer outside the interval
        return insts[p].isLoad ? insts[p].memEvent : insts[p].execEvent;
    };

    // Control dependences: a mispredicted branch stalls fetch, so
    // every younger instruction's first event depends on the
    // branch's execute event (until the next such barrier).
    std::int32_t controlBarrier = -1;

    for (std::size_t i = first; i < pos; ++i) {
        const InstTrace &t = trace[i];
        std::int32_t self = find(t.seq, hint);
        if (self < 0)
            continue;
        hint = static_cast<std::size_t>(self);
        const InstEvents &ie = insts[self];
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
    for (auto &v : byDomain)
        v.clear();
    for (std::size_t e = 0; e < g.events.size(); ++e)
        byDomain[domainIndex(g.events[e].domain)].push_back(
            {g.events[e].start, static_cast<std::int32_t>(e)});
    for (auto &v : byDomain)
        stableRadixSort(v, /*descending=*/false, sortScratch);

    auto queueCap = [&](Domain d) {
        switch (d) {
          case Domain::Integer: return cfg.core.intIssueQueueSize;
          case Domain::FloatingPoint: return cfg.core.fpIssueQueueSize;
          case Domain::LoadStore: return cfg.core.lsqSize;
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
                g.addEdge(v[i2 - cap].idx, v[i2].idx);
            // Queue occupancy: entry i2 must issue before entry
            // i2 + margin*cap can be dispatched into the queue.
            int dcap = deratedCap(static_cast<Domain>(d));
            if (dcap > 0 &&
                i2 + dcap < v.size()) {
                DagEvent &ev = g.events[v[i2].idx];
                ev.startCeiling = std::min(
                    ev.startCeiling,
                    g.events[v[i2 + dcap].idx].floorStart);
            }
        }
        // Same-FU serialization.
        for (auto &list : byFu)
            list.clear();
        for (const KeyedIndex &k : v)
            byFu[static_cast<int>(g.events[k.idx].fu)].push_back(k.idx);
        for (int fu = 0; fu < numFuClasses; ++fu) {
            const auto &list = byFu[fu];
            int units = cfg.fuCount(static_cast<FuClass>(fu));
            if (units <= 0)
                continue;
            for (std::size_t i2 = units; i2 < list.size(); ++i2)
                g.addEdge(list[i2 - units], list[i2]);
        }
    }
    g.buildAdjacency();
    return true;
}

int
DepGraphConfig::fuCount(FuClass fu) const
{
    switch (fu) {
      case FuClass::None: return 0;
      case FuClass::IntAlu: return core.intAlus;
      case FuClass::IntMulDiv: return core.intMulDivs;
      case FuClass::FpAlu: return core.fpAlus;
      case FuClass::FpMulDivSqrt: return core.fpMulDivs;
      case FuClass::MemPort: return core.memPorts;
    }
    return 0;
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
