/**
 * @file
 * Time-weighted frequency accumulation shared by the run loop and the
 * telemetry sampler's frequency series.
 *
 * Each domain's clock edges feed one accumulator (the
 * bookkeeping that used to live inline in McdProcessor::run), and the
 * same arithmetic reconstructs a summary from a sampler
 * FreqTracePoint series via fromSeries() — so tests can check the
 * event-driven telemetry stream against the run summary through one
 * definition of "average frequency".
 */

#ifndef MCD_OBS_FREQ_ACCUM_HH
#define MCD_OBS_FREQ_ACCUM_HH

#include <algorithm>
#include <vector>

#include "common/types.hh"

namespace mcd {
namespace obs {

class FreqAccumulator
{
  public:
    FreqAccumulator() = default;

    /** Begin accumulating at @p first_edge with frequency @p f. */
    FreqAccumulator(Tick first_edge, Hertz f)
        : first(first_edge), prev(first_edge), minF(f), maxF(f), lastF(f)
    {}

    /**
     * Note one processed clock edge at @p t where the domain runs at
     * @p f (the frequency in force after the edge's DVFS service).
     * The interval since the previous edge is weighted with @p f —
     * term order matters for bit-reproducible sums, so this is a
     * strict per-edge accumulation, never batched.
     */
    void
    edge(Tick t, Hertz f)
    {
        sum += f * static_cast<double>(t - prev);
        prev = t;
        minF = std::min(minF, f);
        maxF = std::max(maxF, f);
        lastF = f;
    }

    /** Edge-time span covered so far. */
    Tick span() const { return prev - first; }

    /**
     * Time-weighted mean frequency over the covered span; with no
     * span yet (zero or one edge), the current frequency.
     */
    Hertz
    average() const
    {
        Tick s = span();
        return s ? sum / static_cast<double>(s) : lastF;
    }

    Hertz minimum() const { return minF; }
    Hertz maximum() const { return maxF; }
    Tick firstEdge() const { return first; }
    Tick lastEdge() const { return prev; }

    /**
     * Rebuild a summary from a sampler frequency series: @p initial
     * is the frequency in force at @p start, and each trace point
     * switches the frequency from its timestamp on. The window is
     * closed at @p end. Points outside [start, end] clamp.
     */
    static FreqAccumulator
    fromSeries(Hertz initial, const std::vector<FreqTracePoint> &series,
               Tick start, Tick end)
    {
        FreqAccumulator a(start, initial);
        Hertz cur = initial;
        for (const FreqTracePoint &p : series) {
            if (p.when <= start) {
                cur = p.frequency;
                a.minF = std::min(a.minF, cur);
                a.maxF = std::max(a.maxF, cur);
                a.lastF = cur;
                continue;
            }
            Tick at = std::min(p.when, end);
            a.edge(at, cur);
            cur = p.frequency;
            a.minF = std::min(a.minF, cur);
            a.maxF = std::max(a.maxF, cur);
            a.lastF = cur;
            if (p.when >= end)
                break;
        }
        if (a.prev < end)
            a.edge(end, cur);
        return a;
    }

  private:
    Tick first = 0;
    Tick prev = 0;
    double sum = 0.0;
    Hertz minF = 0.0;
    Hertz maxF = 0.0;
    Hertz lastF = 0.0;
};

} // namespace obs
} // namespace mcd

#endif // MCD_OBS_FREQ_ACCUM_HH
