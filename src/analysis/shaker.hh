/**
 * @file
 * The shaker algorithm (paper Section 3.2): distribute schedule slack
 * onto high-power events by stretching them (as if run at a lower
 * frequency), alternating backward and forward passes over the
 * interval DAG with a decaying power threshold, until all slack is
 * consumed or every event adjacent to slack has been scaled to one
 * quarter of its original frequency.
 *
 * Each pass visits the events in time order (latest end first going
 * backward, earliest start first going forward); that order comes
 * from a stable radix sort, and the passes walk a flat working copy
 * of the event times and adjacency rather than the graph itself.
 */

#ifndef MCD_ANALYSIS_SHAKER_HH
#define MCD_ANALYSIS_SHAKER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "analysis/dep_graph.hh"
#include "common/types.hh"

namespace mcd {

/** Shaker tuning parameters. */
struct ShakerConfig
{
    double maxStretch = 4.0;        //!< 1/4 of original frequency
    double thresholdDecay = 0.9;    //!< per direction reversal
    int maxPasses = 40;             //!< backward+forward pairs
    double initialThresholdFactor = 0.99; //!< of max event power
};

/**
 * Per-domain frequency histogram produced from a shaken interval.
 *
 * Bin b (of @c bins) covers frequencies around
 * fMin + (b + 0.5) * (fMax - fMin) / bins; each event contributes its
 * original duration (work at full speed, in picoseconds) to the bin
 * of its assigned frequency fMax / stretch.
 */
struct DomainHistogram
{
    static constexpr int bins = 320;    //!< XScale step count (paper)

    std::array<double, bins> work{};    //!< ps of full-speed work

    double
    total() const
    {
        double t = 0.0;
        for (double w : work)
            t += w;
        return t;
    }
};

/** Result of shaking one interval. */
struct ShakeResult
{
    std::array<DomainHistogram, numDomains> histogram;
    int passesRun = 0;
    double slackConsumed = 0.0;     //!< ps of slack absorbed by scaling
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

/**
 * Run the shaker on one interval graph (mutates event times,
 * stretches, and power factors) and build the histograms.
 *
 * @param fmax the maximum (and profiling-run) frequency
 * @param fmin the minimum scalable frequency (stretch ceiling)
 */
ShakeResult shake(IntervalGraph &g, const ShakerConfig &cfg,
                  Hertz fmax, Hertz fmin);

/** Map a frequency to its histogram bin. */
int histogramBin(Hertz f, Hertz fmin, Hertz fmax);

/** Center frequency of a histogram bin. */
Hertz histogramBinFreq(int bin, Hertz fmin, Hertz fmax);

} // namespace mcd

#endif // MCD_ANALYSIS_SHAKER_HH
