/**
 * @file
 * The four-domain out-of-order engine (paper Section 2, Table 1),
 * assembled from per-domain units wired through synchronized ports.
 *
 * All boundary crossings — dispatch into the issue queues and LSQ,
 * issue-queue credit returns, register results consumed across
 * domains, branch resolutions, and completion signals to the ROB —
 * are subject to the SyncRule of the (source, destination) domain
 * pair, applied inside the SyncPort/SyncSignal/credit primitives the
 * units communicate through (clock/sync.hh); synchronization-stall
 * statistics are counted at those ports and folded into stats(). In
 * the singly clocked configuration all four ticks share one clock and
 * every rule collapses to plain next-edge visibility, so the
 * synchronization overhead measured between the two configs is
 * attributable purely to the MCD clocking style, as in the paper.
 */

#ifndef MCD_CPU_CORE_UNITS_HH
#define MCD_CPU_CORE_UNITS_HH

#include "cpu/core_shared.hh"
#include "cpu/front_end_unit.hh"
#include "cpu/issue_unit.hh"
#include "cpu/ls_unit.hh"

namespace mcd {

class CoreUnits
{
  public:
    /**
     * @param params machine configuration (Table 1)
     * @param oracle in-order functional executor supplying the
     *        correct-path instruction stream
     * @param memory the cache hierarchy
     * @param clocks one ClockDomain per architectural domain; in the
     *        singly clocked configuration all entries alias one object
     * @param sync_fraction T_s as a fraction of the fastest period
     * @param power optional power model (may be nullptr)
     * @param collector optional trace collector (may be nullptr)
     * @param commit_cap stop request after this many commits (0: none)
     */
    CoreUnits(const CoreParams &params, Executor &oracle,
              MemoryHierarchy &memory,
              std::array<ClockDomain *, numDomains> clocks,
              double sync_fraction, PowerModel *power,
              TraceCollector *collector, std::uint64_t commit_cap = 0);

    /** Perform one cycle of work for domain @p d at edge time @p now. */
    void tickDomain(Domain d, Tick now);

    /** True once HALT has committed. */
    bool done() const { return shared.haltCommitted; }

    /**
     * True once the run should stop: HALT committed, or the commit cap
     * reached. Latched at the end of the front-end tick (the only
     * stage that commits), so the run loop reads a flag instead of
     * re-deriving the condition per event.
     */
    bool stopRequested() const { return stopReq; }

    std::uint64_t committed() const { return shared.stat.committed; }
    Tick lastCommitTime() const { return shared.lastCommit; }

    /** Run statistics with the port wait counters folded in. */
    PipelineStats stats() const;

    const BranchPredictor &bpred() const { return fe.bpred(); }

    /** In-flight instruction count (test hook). */
    std::size_t inFlight() const { return shared.window.size(); }

    /** Bind the sampling policy (sampled runs; null = full detail). */
    void bindSampling(SamplingPolicy *sp) { shared.sampling = sp; }

    /** Instructions consumed by fast-forward so far (0 unsampled). */
    std::uint64_t ffExecuted() const;

    /** Instruction-window high-water mark and capacity (arena proof). */
    std::size_t windowHighWater() const { return shared.window.highWater(); }
    std::size_t windowCapacity() const { return shared.window.capacity(); }

    /** Total ring reallocations across all pre-sized queues (0 when
     *  every reservation held; see common/ring_buffer.hh). */
    std::uint64_t ringGrows() const;

    /** Entries currently in @p d's primary queue. */
    std::size_t queueLength(Domain d) const;

    /** Capacity of @p d's primary queue. */
    int queueCapacity(Domain d) const;

    /**
     * Drain @p d's occupancy counters accumulated since the previous
     * call (or construction) and reset the window.
     */
    OccupancyWindow takeOccupancyWindow(Domain d);

  private:
    void driveSampling(Tick now);

    /** The issue unit of execution domain @p d. */
    IssueUnit &issueUnit(Domain d)
    { return issue[d == Domain::FloatingPoint]; }
    const IssueUnit &issueUnit(Domain d) const
    { return issue[d == Domain::FloatingPoint]; }

    CoreShared shared;
    DomainPorts ports;

    FrontEndUnit fe;
    std::array<IssueUnit, numRegClasses> issue;     //!< integer, FP
    LsUnit lsUnit;

    std::uint64_t commitCap;
    bool stopReq = false;

    // Per-domain occupancy accumulation (see takeOccupancyWindow).
    std::array<std::uint64_t, numDomains> occCycles{};
    std::array<std::uint64_t, numDomains> occSum{};
};

} // namespace mcd

#endif // MCD_CPU_CORE_UNITS_HH
