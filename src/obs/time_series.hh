/**
 * @file
 * Per-domain time-series telemetry for one simulated run.
 *
 * Two kinds of data with different time semantics:
 *
 *  - Periodic samples: at a configurable tick period the simulator
 *    snapshots every domain's frequency, voltage, queue occupancy,
 *    and cumulative energy. Sampling is edge-aligned: a sample is
 *    taken at the first clock edge at or after each period multiple,
 *    and a long edge-free gap yields one catch-up sample (periods
 *    with no edges have no observable state changes).
 *
 *  - Frequency series: the exact (time, frequency) points of every
 *    frequency change, per domain — event-driven, not decimated, so
 *    the paper's Figure 8 traces reconstruct from telemetry exactly.
 *    Tests check a series against the run's independent per-edge
 *    FreqAccumulator summary (obs/freq_accum.hh).
 */

#ifndef MCD_OBS_TIME_SERIES_HH
#define MCD_OBS_TIME_SERIES_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mcd {
namespace obs {

/** One periodic snapshot of all domains. */
struct TimeSample
{
    Tick when = 0;
    std::array<Hertz, numDomains> frequency{};
    std::array<Volt, numDomains> voltage{};
    std::array<double, numDomains> occupancy{};  //!< queue fill [0, 1]
    std::array<double, numDomains> energy{};     //!< cumulative joules
};

class TimeSeriesSampler
{
  public:
    TimeSeriesSampler() = default;

    /** @param period_ps sampling period; 0 disables periodic samples */
    explicit TimeSeriesSampler(Tick period_ps)
        : per(period_ps), next(period_ps)
    {}

    bool enabled() const { return per != 0; }
    Tick period() const { return per; }

    /** Earliest tick at which the next sample is due (neverTick when
     *  periodic sampling is disabled). */
    Tick nextDue() const { return enabled() ? next : neverTick; }

    /**
     * Record a sample and advance the due time past s.when: one
     * sample per call regardless of how many whole periods elapsed.
     */
    void
    record(const TimeSample &s)
    {
        points.push_back(s);
        do {
            next += per;
        } while (next <= s.when);
    }

    const std::vector<TimeSample> &samples() const { return points; }

    /** Append an exact frequency-change point for domain @p d. */
    void
    noteFrequency(Domain d, Tick when, Hertz f)
    {
        series[domainIndex(d)].push_back({when, f});
    }

    /** The exact per-domain frequency series (Figure 8). */
    const std::vector<FreqTracePoint> &
    frequencyTrace(Domain d) const
    {
        return series[domainIndex(d)];
    }

  private:
    Tick per = 0;
    Tick next = 0;
    std::vector<TimeSample> points;
    std::array<std::vector<FreqTracePoint>, numDomains> series;
};

} // namespace obs
} // namespace mcd

#endif // MCD_OBS_TIME_SERIES_HH
