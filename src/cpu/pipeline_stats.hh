/**
 * @file
 * Aggregate pipeline statistics and the windowed occupancy counters —
 * split from the execution units so result plumbing (RunResult, the
 * experiment cache, the controllers' observation structs) can depend
 * on the numbers without pulling in the machine itself.
 */

#ifndef MCD_CPU_PIPELINE_STATS_HH
#define MCD_CPU_PIPELINE_STATS_HH

#include <cstddef>
#include <cstdint>

namespace mcd {

/** Aggregate pipeline statistics for one run. */
struct PipelineStats
{
    std::uint64_t fetched = 0;
    std::uint64_t committed = 0;
    std::uint64_t committedFp = 0;
    std::uint64_t committedLoads = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t mispredicts = 0;

    // Cross-domain synchronization waits (zero when singly clocked:
    // same-domain rules are always visible). Counted per blocked
    // probe, not per instruction, so a value crossing late is charged
    // once per edge it delays the consumer. Aggregated at stats()
    // time from the SyncPort/SyncSignal wait counters at the domain
    // boundaries (see clock/sync.hh).
    std::uint64_t syncCommitStalls = 0;   //!< completion signal to ROB
    std::uint64_t syncDispatchWaits = 0;  //!< queue entry not yet visible
    std::uint64_t syncAddrWaits = 0;      //!< address from int domain to LSQ
};

/**
 * Windowed occupancy counters for one domain's primary queue (ROB for
 * the front end, issue queues for the execution domains, LSQ for
 * load/store), accumulated per domain edge and drained with
 * CoreUnits::takeOccupancyWindow(). Online DVFS controllers consume
 * these as their utilization signal.
 */
struct OccupancyWindow
{
    std::uint64_t cycles = 0;       //!< domain edges accumulated
    std::uint64_t occupancySum = 0; //!< Σ queue entries per edge
    std::size_t queueLength = 0;    //!< entries at the sample point
    int capacity = 0;

    /** Mean queue-fill fraction [0, 1] over the window. */
    double
    meanOccupancy() const
    {
        if (!cycles || capacity <= 0)
            return 0.0;
        return static_cast<double>(occupancySum) /
            (static_cast<double>(cycles) * static_cast<double>(capacity));
    }
};

} // namespace mcd

#endif // MCD_CPU_PIPELINE_STATS_HH
