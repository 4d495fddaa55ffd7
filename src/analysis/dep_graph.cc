#include "dep_graph.hh"

#include <algorithm>
#include <array>
#include <string>

#include "common/log.hh"

namespace mcd {

namespace {

/** The number of FuClass values. */
constexpr int numFuClasses = 6;

/** The events one instruction became. */
struct InstEvents
{
    std::int32_t execEvent = -1;    //!< execute or addr-calc
    std::int32_t memEvent = -1;     //!< memory access (mem ops)
    bool isLoad = false;
};

/**
 * The bySeq index of the first entry with @p seq, or -1 (producer
 * outside the interval). @p bySeq is sorted by seq; the search starts
 * at bySeq[@p hint], and any hint gives the same answer.
 */
std::int32_t
findSeq(const std::vector<KeyedIndex> &bySeq, std::uint64_t seq,
        std::size_t hint)
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

} // namespace

void
IntervalGraph::resize(std::size_t n)
{
    start.resize(n);
    end.resize(n);
    stretch.resize(n);
    power.resize(n);
    inBound.resize(n);
    outBound.resize(n);
    startCeiling.resize(n);
    scalable.resize(n);
    fixed.resize(n);
    basePower.resize(n);
    domain.resize(n);
}

std::int32_t
IntervalGraph::addEvent(const DagEvent &ev)
{
    const std::size_t i = size();
    resize(i + 1);
    start[i] = ev.start;
    end[i] = ev.end;
    stretch[i] = ev.stretch;
    power[i] = ev.power;
    inBound[i] = ev.inBound;
    outBound[i] = ev.outBound;
    startCeiling[i] = ev.startCeiling;
    scalable[i] = ev.scalable;
    fixed[i] = ev.fixed;
    basePower[i] = ev.basePower;
    domain[i] = ev.domain;
    return static_cast<std::int32_t>(i);
}

void
IntervalGraph::clear()
{
    resize(0);
    // The edge arrays go: the next build's arc list is the larger
    // of the two, and it would otherwise sit beside them.
    std::vector<Arc>().swap(arcs);
    std::vector<std::uint32_t>().swap(succOff);
    std::vector<std::uint32_t>().swap(predOff);
    std::vector<DagEdge>().swap(succEdges);
    std::vector<DagEdge>().swap(predEdges);
}

void
IntervalGraph::buildAdjacency()
{
    const std::size_t n = size();
    // Edges bucketed by an earlier call are bucketed again, ahead of
    // the new ones.
    if (!succEdges.empty()) {
        std::vector<Arc> all;
        all.reserve(succEdges.size() + arcs.size());
        for (std::size_t v = 0; v + 1 < succOff.size(); ++v)
            for (const DagEdge &s : succ(v))
                all.push_back({static_cast<std::int32_t>(v), s.to, s.lag});
        all.insert(all.end(), arcs.begin(), arcs.end());
        arcs.swap(all);
    }
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
    std::vector<Arc>().swap(arcs);
}

bool
IntervalGraph::isAcyclic() const
{
    // Kahn's algorithm.
    std::vector<int> indeg(size(), 0);
    for (std::size_t i = 0; i < size(); ++i)
        for (const DagEdge &s : succ(i))
            ++indeg[s.to];
    std::vector<std::int32_t> ready;
    for (std::size_t i = 0; i < size(); ++i)
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
    return seen == size();
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

std::size_t
robLookahead(const DepGraphConfig &cfg)
{
    return static_cast<std::size_t>(cfg.core.robSize * cfg.occupancyMargin);
}

std::size_t
intervalEnd(std::span<const InstTrace> trace, std::size_t first,
            Tick length)
{
    const Tick k = intervalOf(trace[first], length);
    std::size_t end = first + 1;
    while (end < trace.size() && intervalOf(trace[end], length) == k)
        ++end;
    return end;
}

void
buildIntervalGraph(std::span<const InstTrace> records, std::size_t count,
                   const DepGraphConfig &cfg, IntervalGraph &g)
{
    if (count == 0 || count > records.size())
        panic("buildIntervalGraph: " + std::to_string(count) +
              " interval records of " + std::to_string(records.size()));
    const Tick len = cfg.intervalLength;
    const Tick k = intervalOf(records[0], len);
    g.clear();
    g.intervalStart = k * len;
    g.intervalEnd = (k + 1) * len;

    // Count the interval's events: one per instruction, two (exec +
    // mem) per memory op, none for NOP and HALT, which complete in
    // the front end.
    std::size_t numEvents = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const OpInfo &info = opInfo(records[i].op);
        if (info.iq != RegFile::None)
            numEvents += info.isMem() ? 2 : 1;
    }
    g.resize(numEvents);

    // Builder scratch: freed before the edges are bucketed.
    {
        std::vector<InstEvents> insts;      // in trace order
        std::vector<KeyedIndex> bySeq;      // (seq, insts index), by seq
        std::vector<FuClass> fu(numEvents);
        std::vector<KeyedIndex> sortScratch;
        insts.reserve(count);
        bySeq.reserve(count);

        std::int32_t nextEvent = 0;
        auto addEvent = [&](Domain d, Tick s, Tick e, FuClass unit,
                            Tick fixedPortion) -> std::int32_t {
            const std::int32_t i = nextEvent++;
            const Tick end = e > s ? e : s + 1;
            const Tick fixedPs = std::min(fixedPortion, end - s - 1);
            const double p = cfg.domainPower[domainIndex(d)];
            g.domain[i] = d;
            g.start[i] = s;
            g.end[i] = end;
            g.stretch[i] = 1.0;
            g.power[i] = p;
            g.basePower[i] = p;
            // The floor start until bounds are finalized below.
            g.inBound[i] = s;
            // The ROB ceiling until bounds are finalized below.
            g.outBound[i] = ~Tick(0);
            g.startCeiling[i] = ~Tick(0);
            g.scalable[i] = static_cast<double>(end - s - fixedPs);
            g.fixed[i] = static_cast<double>(fixedPs);
            fu[i] = unit;
            return i;
        };

        for (std::size_t i = 0; i < count; ++i) {
            const InstTrace &t = records[i];
            const OpInfo &info = opInfo(t.op);
            if (info.iq == RegFile::None)
                continue;
            InstEvents ie;
            Tick skew = cfg.completionSkew;
            ie.execEvent = addEvent(info.execDomain, t.issueTime,
                                    t.execDone + skew, info.fu, 0);
            if (info.isMem()) {
                ie.memEvent = addEvent(Domain::LoadStore, t.memIssue,
                                       t.memDone + skew,
                                       FuClass::MemPort, t.memFixed);
                ie.isLoad = t.isLoadOp();
            }
            // Events cannot be rescheduled before their dispatch: the
            // front end is pinned at full speed (paper Section 3.2).
            g.inBound[ie.execEvent] = t.dispatchTime;
            // ROB occupancy: this instruction must complete before the
            // (fixed-speed) front end dispatches entry i + robSize
            // (derated by the occupancy margin).
            std::size_t robPeer = i + robLookahead(cfg);
            if (robPeer < records.size()) {
                Tick ceil = records[robPeer].dispatchTime;
                g.outBound[ie.execEvent] = ceil;
                if (ie.memEvent >= 0)
                    g.outBound[ie.memEvent] = ceil;
            }
            bySeq.push_back({t.seq,
                             static_cast<std::int32_t>(insts.size())});
            insts.push_back(ie);
        }
        // Commit order nearly always lists seqs ascending; otherwise a
        // stable sort keeps the first instruction of a duplicated seq
        // first, and findSeq() returns it.
        if (!std::is_sorted(bySeq.begin(), bySeq.end(),
                            [](const KeyedIndex &a, const KeyedIndex &b) {
                                return a.key < b.key;
                            }))
            stableRadixSort(bySeq, /*descending=*/false, sortScratch);

        // A partial final interval must not pretend to own a full
        // interval's dilation budget: clamp its end to the actual end
        // of observed work.
        Tick maxEnd = g.intervalStart + 1;
        for (Tick e : g.end)
            maxEnd = std::max(maxEnd, e);
        g.intervalEnd = std::min(g.intervalEnd, maxEnd);

        // Data and intra-instruction dependences. Lookups search from
        // the current instruction's own entry: its producers sit just
        // before.
        std::size_t hint = 0;
        auto resultEvent = [&](std::uint64_t seq) -> std::int32_t {
            std::int32_t p = findSeq(bySeq, seq, hint);
            if (p < 0)
                return -1;  // producer outside the interval
            return insts[p].isLoad ? insts[p].memEvent
                                   : insts[p].execEvent;
        };

        // Control dependences: a mispredicted branch stalls fetch, so
        // every younger instruction's first event depends on the
        // branch's execute event (until the next such barrier).
        std::int32_t controlBarrier = -1;

        for (std::size_t i = 0; i < count; ++i) {
            const InstTrace &t = records[i];
            std::int32_t self = findSeq(bySeq, t.seq, hint);
            if (self < 0)
                continue;
            hint = static_cast<std::size_t>(self);
            const InstEvents &ie = insts[self];
            if (controlBarrier >= 0) {
                // The pipeline-refill gap after a misprediction is
                // front-end time; carry it as a fixed lag so the
                // shaker cannot treat it as slack.
                std::int64_t gap =
                    static_cast<std::int64_t>(g.start[ie.execEvent]) -
                    static_cast<std::int64_t>(g.end[controlBarrier]);
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
        // The per-instruction scratch is done; free it before the
        // per-domain orders and the rest of the arc list grow.
        std::vector<InstEvents>().swap(insts);
        std::vector<KeyedIndex>().swap(bySeq);

        // Functional dependences (shared units) and structural
        // dependences (finite queues), per domain, in start order.
        std::vector<KeyedIndex> byDomain[numDomains];  // (start, event)
        for (std::size_t e = 0; e < numEvents; ++e)
            byDomain[domainIndex(g.domain[e])].push_back(
                {g.start[e], static_cast<std::int32_t>(e)});
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

        std::vector<std::int32_t> byFu[numFuClasses];  // events, by FU
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
                    Tick &ceil = g.startCeiling[v[i2].idx];
                    ceil = std::min(ceil, g.inBound[v[i2 + dcap].idx]);
                }
            }
            // Same-FU serialization.
            for (auto &list : byFu)
                list.clear();
            for (const KeyedIndex &k : v)
                byFu[static_cast<int>(fu[k.idx])].push_back(k.idx);
            for (int unit = 0; unit < numFuClasses; ++unit) {
                const auto &list = byFu[unit];
                int units = cfg.fuCount(static_cast<FuClass>(unit));
                if (units <= 0)
                    continue;
                for (std::size_t i2 = units; i2 < list.size(); ++i2)
                    g.addEdge(list[i2 - units], list[i2]);
            }
        }
    }

    // The slack bounds the shaker reads: the floor start no earlier
    // than the interval start, the ROB ceiling no later than its end.
    for (std::size_t e = 0; e < numEvents; ++e) {
        g.inBound[e] = std::max(g.intervalStart, g.inBound[e]);
        g.outBound[e] = std::min(g.intervalEnd, g.outBound[e]);
    }
    g.buildAdjacency();
}

IntervalGraphStream::IntervalGraphStream(
    const std::vector<InstTrace> &trace, const DepGraphConfig &cfg)
    : trace(trace), cfg(cfg)
{}

bool
IntervalGraphStream::next(IntervalGraph &g)
{
    if (pos >= trace.size())
        return false;
    const std::size_t end = intervalEnd(trace, pos, cfg.intervalLength);
    buildIntervalGraph(std::span(trace).subspan(pos), end - pos, cfg, g);
    pos = end;
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
        intervalOf(trace.back(), cfg.intervalLength)) + 2);
    IntervalGraphStream stream(trace, cfg);
    IntervalGraph g;
    while (stream.next(g))
        graphs.push_back(std::move(g));
    return graphs;
}

} // namespace mcd
