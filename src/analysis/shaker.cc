#include "shaker.hh"

#include <algorithm>

#include "common/log.hh"

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

ShakeResult
shake(IntervalGraph &g, const ShakerConfig &cfg, Hertz fmax, Hertz fmin)
{
    ShakeResult result;
    if (g.size() == 0)
        return result;
    if (!g.hasAdjacency())
        panic("shake: the interval graph's adjacency is not built");

    const double maxStretch = std::min(cfg.maxStretch, fmax / fmin);
    const std::size_t n = g.size();

    // The graph's columns, walked and mutated in place.
    std::vector<Tick> &start = g.start;
    std::vector<Tick> &end = g.end;
    std::vector<double> &stretch = g.stretch;
    std::vector<double> &power = g.power;
    const std::vector<Tick> &inBound = g.inBound;
    const std::vector<Tick> &outBound = g.outBound;
    const std::vector<Tick> &startCeiling = g.startCeiling;
    const std::vector<double> &scalable = g.scalable;
    const std::vector<double> &fixed = g.fixed;
    const std::vector<double> &basePower = g.basePower;
    double maxPower = 0.0;
    double minPower = 1e300;
    for (double p : basePower) {
        maxPower = std::max(maxPower, p);
        minPower = std::min(minPower, p);
    }

    double threshold = maxPower * cfg.initialThresholdFactor;
    const double thresholdFloor =
        minPower / (maxStretch * maxStretch) * 0.5;

    // Slack between an event's end and its earliest successor start
    // (bounded by the interval end).
    auto outSlack = [&](std::int32_t e) {
        Tick bound = outBound[e];
        for (const DagEdge &s : g.succ(e)) {
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
        for (const DagEdge &p : g.pred(e))
            bound = std::max(bound, end[p.to] + static_cast<Tick>(p.lag));
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

    // Fixed-point detection: the state at the start of each pass pair,
    // and the slack each stretch of the pair absorbed, in order.
    std::vector<Tick> pairStart, pairEnd;
    std::vector<double> pairStretch, pairPower;
    std::vector<std::int32_t> pairOrder(n);
    std::vector<double> adds;
    // A decay in [0, 1] never raises a non-negative threshold, which
    // the fixed-point exit below relies on.
    const bool thresholdFalls =
        cfg.thresholdDecay >= 0.0 && cfg.thresholdDecay <= 1.0;

    bool blocked = true;
    for (int pass = 0; pass < cfg.maxPasses; ++pass) {
        bool scaled = false;
        // Snapshot only after an unblocked pair: while the threshold
        // still holds stretches back, a fixed point is unlikely, and
        // missing one delays the exit by a single pair.
        const bool watch = !blocked;
        // Some event with slack stayed below the threshold unstretched.
        blocked = false;
        if (watch) {
            pairStart = start;
            pairEnd = end;
            pairStretch = stretch;
            pairPower = power;
            for (std::size_t i = 0; i < n; ++i)
                pairOrder[i] = order[i].idx;
        }
        adds.clear();

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
            if (stretch[e] < maxStretch) {
                if (power[e] >= threshold) {
                    double add = stretchBy(e, slack, /*later=*/true);
                    slack -= add;
                    result.slackConsumed += add;
                    adds.push_back(add);
                    scaled = true;
                } else {
                    blocked = true;
                }
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
            if (stretch[e] < maxStretch) {
                if (power[e] >= threshold) {
                    double add = stretchBy(e, slack, /*later=*/false);
                    slack -= add;
                    result.slackConsumed += add;
                    adds.push_back(add);
                    scaled = true;
                } else {
                    blocked = true;
                }
            }
            if (slack > 0.0) {
                Tick shift = static_cast<Tick>(slack);
                start[e] -= shift;
                end[e] -= shift;
            }
        }
        threshold *= cfg.thresholdDecay;
        result.passesRun = pass + 1;
        result.passesWalked = pass + 1;

        if (!scaled && threshold < thresholdFloor)
            break;

        // Fixed point: the pair mapped its starting state onto itself,
        // and the threshold held back no stretch. A later pair starts
        // from that same state with a threshold no higher, so every
        // comparison comes out the same and the pair repeats exactly,
        // adds included. Replay the remaining pairs' bookkeeping
        // instead of walking them.
        const bool fixedPoint = watch && !blocked && thresholdFalls &&
            threshold >= 0.0 && start == pairStart && end == pairEnd &&
            stretch == pairStretch && power == pairPower &&
            std::equal(order.begin(), order.end(), pairOrder.begin(),
                       [](const KeyedIndex &k, std::int32_t idx) {
                           return k.idx == idx;
                       });
        if (fixedPoint) {
            for (int rest = pass + 1; rest < cfg.maxPasses; ++rest) {
                for (double add : adds)
                    result.slackConsumed += add;
                threshold *= cfg.thresholdDecay;
                threshold *= cfg.thresholdDecay;
                result.passesRun = rest + 1;
                if (!scaled && threshold < thresholdFloor)
                    break;
            }
            break;
        }
    }

    // Build the per-domain frequency histograms: each event's work
    // (original full-speed duration) lands in the bin of its assigned
    // frequency fmax / stretch. Only the on-chip (scalable) portion of
    // the event is work governed by the domain clock.
    for (std::size_t i = 0; i < n; ++i) {
        int b = histogramBin(fmax / stretch[i], fmin, fmax);
        result.histogram[domainIndex(g.domain[i])].work[b] += scalable[i];
    }
    return result;
}

} // namespace mcd
