/**
 * @file
 * The global-voltage-scaling search (paper Section 4): the table point
 * whose single-clock degradation best matches a target, found by
 * walking a binary search over predicted degradations and simulating
 * only the points the prediction cannot settle.
 *
 * With one clock and memory latency in core cycles, a run's cycle
 * count barely moves with the clock, so the degradation at frequency
 * f is predicted as f_base / f - 1 from the baseline's frequency
 * f_base. The search trusts a prediction within a relative band
 * ε·(1 + predicted) and measures a point only when the band cannot
 * settle the point's branch decision or its place in the closest-point
 * pick; DESIGN.md §5 states the rule and how ε was measured.
 */

#ifndef MCD_CORE_GLOBAL_SEARCH_HH
#define MCD_CORE_GLOBAL_SEARCH_HH

#include <functional>
#include <vector>

namespace mcd {

/**
 * Prediction band in full detail. Over 16 benchmarks × seeds
 * {1, 1000, 7} × all 32 table points, the largest relative error of
 * the predicted single-clock run time was 0.133%.
 */
inline constexpr double globalBandDetailed = 0.003;

/**
 * Prediction band under sampling: the sampled run time is an
 * extrapolation, and the same sweep at detailed=1000, ff=9000,
 * warmup=250 erred by up to 2.1%.
 */
inline constexpr double globalBandSampled = 0.04;

/** Outcome of one global search. */
struct GlobalPick
{
    int index = -1;        //!< the chosen table point
    int measured = 0;      //!< distinct points measured
    bool fellBack = false; //!< a measured point missed its band
};

/**
 * Pick the table point whose measured degradation is closest to
 * @p target among the points a binary search visits, exactly as a
 * search that measures every point it visits would: index 0 is the
 * slowest point, a point more degraded than the target moves the
 * search to faster points, anything else to slower ones, and among
 * equally close points the first one visited wins.
 *
 * @p predicted holds each point's predicted degradation, @p band the
 * relative prediction error trusted. @p degradationAt measures a
 * point; it is called at most once per point, always for the chosen
 * one. When a measured point misses its band, the search walks again
 * with an infinite band, measuring every visited point not yet
 * measured.
 */
GlobalPick searchGlobalPoint(
    const std::vector<double> &predicted, double target, double band,
    const std::function<double(int)> &degradationAt);

} // namespace mcd

#endif // MCD_CORE_GLOBAL_SEARCH_HH
