#include "shaker.hh"

#include <algorithm>

namespace mcd {

int
histogramBin(Hertz f, Hertz fmin, Hertz fmax)
{
    double t = (f - fmin) / (fmax - fmin);
    int b = static_cast<int>(t * DomainHistogram::bins);
    if (b < 0)
        b = 0;
    if (b >= DomainHistogram::bins)
        b = DomainHistogram::bins - 1;
    return b;
}

Hertz
histogramBinFreq(int bin, Hertz fmin, Hertz fmax)
{
    return fmin + (bin + 0.5) * (fmax - fmin) / DomainHistogram::bins;
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

namespace {

/** Edges in compressed (CSR) form: node v's edges are
 *  edges[off[v] .. off[v + 1]). */
struct FlatAdjacency
{
    std::vector<std::uint32_t> off;
    std::vector<DagEdge> edges;

    explicit FlatAdjacency(const std::vector<std::vector<DagEdge>> &lists)
        : off(lists.size() + 1)
    {
        std::size_t total = 0;
        for (std::size_t v = 0; v < lists.size(); ++v) {
            off[v] = static_cast<std::uint32_t>(total);
            total += lists[v].size();
        }
        off[lists.size()] = static_cast<std::uint32_t>(total);
        edges.reserve(total);
        for (const std::vector<DagEdge> &l : lists)
            edges.insert(edges.end(), l.begin(), l.end());
    }
};

} // namespace

ShakeResult
shake(IntervalGraph &g, const ShakerConfig &cfg, Hertz fmax, Hertz fmin)
{
    ShakeResult result;
    if (g.events.empty())
        return result;

    const double maxStretch = std::min(cfg.maxStretch, fmax / fmin);
    const std::size_t n = g.size();

    // Working copy, one array per field: the passes read neighbors'
    // times through flat adjacency instead of chasing whole events and
    // per-node edge vectors. Written back to g.events at the end.
    std::vector<Tick> start(n), end(n);
    std::vector<double> stretch(n), power(n);
    // Per-event constants: the slack bounds that do not depend on
    // neighbors (interval edges, dispatch anchor, ROB ceiling), the
    // deferral ceiling, and the stretchable and fixed durations.
    std::vector<Tick> inBound(n), outBound(n), startCeiling(n);
    std::vector<double> scalable(n), fixed(n);
    // Base (unstretched) power factors for threshold bookkeeping.
    std::vector<double> basePower(n);
    double maxPower = 0.0;
    double minPower = 1e300;
    for (std::size_t i = 0; i < n; ++i) {
        const DagEvent &ev = g.events[i];
        start[i] = ev.start;
        end[i] = ev.end;
        stretch[i] = ev.stretch;
        power[i] = ev.power;
        inBound[i] = std::max(g.intervalStart, ev.floorStart);
        outBound[i] = std::min(g.intervalEnd, ev.endCeiling);
        startCeiling[i] = ev.startCeiling;
        scalable[i] =
            static_cast<double>(ev.origDuration - ev.fixedPortion);
        fixed[i] = static_cast<double>(ev.fixedPortion);
        basePower[i] = ev.power;
        maxPower = std::max(maxPower, basePower[i]);
        minPower = std::min(minPower, basePower[i]);
    }
    const FlatAdjacency succ(g.out);
    const FlatAdjacency pred(g.in);

    double threshold = maxPower * cfg.initialThresholdFactor;
    const double thresholdFloor =
        minPower / (maxStretch * maxStretch) * 0.5;

    // Slack between an event's end and its earliest successor start
    // (bounded by the interval end).
    auto outSlack = [&](std::int32_t e) {
        Tick bound = outBound[e];
        for (std::uint32_t j = succ.off[e]; j < succ.off[e + 1]; ++j) {
            const DagEdge &s = succ.edges[j];
            Tick limit = start[s.to];
            limit = limit > static_cast<Tick>(s.lag)
                ? limit - static_cast<Tick>(s.lag) : 0;
            bound = std::min(bound, limit);
        }
        if (bound <= end[e])
            return 0.0;
        return static_cast<double>(bound - end[e]);
    };
    // Slack between an event's start and its latest predecessor end
    // (bounded by the interval start).
    auto inSlack = [&](std::int32_t e) {
        Tick bound = inBound[e];
        for (std::uint32_t j = pred.off[e]; j < pred.off[e + 1]; ++j) {
            const DagEdge &p = pred.edges[j];
            bound = std::max(bound, end[p.to] + static_cast<Tick>(p.lag));
        }
        if (bound >= start[e])
            return 0.0;
        return static_cast<double>(start[e] - bound);
    };
    // Stretch event e by up to @p slack; returns the slack it absorbed.
    auto stretchBy = [&](std::int32_t e, double slack,
                         bool later) -> double {
        double maxAdd = scalable[e] * (maxStretch - stretch[e]);
        double add = std::min(slack, maxAdd);
        if (later)
            end[e] += static_cast<Tick>(add);
        else
            start[e] -= static_cast<Tick>(add);
        stretch[e] = (static_cast<double>(end[e] - start[e]) - fixed[e]) /
            scalable[e];
        power[e] = basePower[e] / (stretch[e] * stretch[e]);
        return add;
    };

    // The visiting order persists across sorts (each one is stable
    // with respect to the previous order).
    std::vector<KeyedIndex> order(n);
    std::vector<KeyedIndex> sortScratch;
    for (std::size_t i = 0; i < n; ++i)
        order[i].idx = static_cast<std::int32_t>(i);

    for (int pass = 0; pass < cfg.maxPasses; ++pass) {
        bool scaled = false;

        // Backward pass: latest-ending events first; slack sits on
        // outgoing edges and migrates to incoming ones.
        for (KeyedIndex &k : order)
            k.key = end[k.idx];
        stableRadixSort(order, /*descending=*/true, sortScratch);
        for (const KeyedIndex &k : order) {
            const std::int32_t e = k.idx;
            double slack = outSlack(e);
            if (slack <= 0.0)
                continue;
            if (power[e] >= threshold && stretch[e] < maxStretch) {
                double add = stretchBy(e, slack, /*later=*/true);
                slack -= add;
                result.slackConsumed += add;
                scaled = true;
            }
            if (slack > 0.0) {
                // Move the event later, handing slack to predecessors
                // (bounded by the issue-queue occupancy ceiling).
                Tick shift = static_cast<Tick>(slack);
                if (startCeiling[e] > start[e]) {
                    shift = std::min(shift, startCeiling[e] - start[e]);
                } else {
                    shift = 0;
                }
                start[e] += shift;
                end[e] += shift;
            }
        }
        threshold *= cfg.thresholdDecay;

        // Forward pass: earliest-starting events first; slack sits on
        // incoming edges and migrates to outgoing ones.
        for (KeyedIndex &k : order)
            k.key = start[k.idx];
        stableRadixSort(order, /*descending=*/false, sortScratch);
        for (const KeyedIndex &k : order) {
            const std::int32_t e = k.idx;
            double slack = inSlack(e);
            if (slack <= 0.0)
                continue;
            if (power[e] >= threshold && stretch[e] < maxStretch) {
                double add = stretchBy(e, slack, /*later=*/false);
                slack -= add;
                result.slackConsumed += add;
                scaled = true;
            }
            if (slack > 0.0) {
                Tick shift = static_cast<Tick>(slack);
                start[e] -= shift;
                end[e] -= shift;
            }
        }
        threshold *= cfg.thresholdDecay;
        result.passesRun = pass + 1;

        if (!scaled && threshold < thresholdFloor)
            break;
    }

    for (std::size_t i = 0; i < n; ++i) {
        DagEvent &ev = g.events[i];
        ev.start = start[i];
        ev.end = end[i];
        ev.stretch = stretch[i];
        ev.power = power[i];
    }

    // Build the per-domain frequency histograms: each event's work
    // (original full-speed duration) lands in the bin of its assigned
    // frequency fmax / stretch.
    for (const DagEvent &ev : g.events) {
        Hertz f = fmax / ev.stretch;
        int b = histogramBin(f, fmin, fmax);
        // Only the on-chip (scalable) portion of the event is work
        // governed by the domain clock.
        result.histogram[domainIndex(ev.domain)].work[b] +=
            static_cast<double>(ev.origDuration - ev.fixedPortion);
    }
    return result;
}

} // namespace mcd
