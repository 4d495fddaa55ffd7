/**
 * @file
 * McdProcessor: the top-level façade binding the clock domains, DVFS
 * engines, memory hierarchy, out-of-order core, power model, and
 * trace collector into one runnable simulated processor.
 *
 * The run loop is a deterministic discrete-event scheduler
 * (core/sched.hh): per-domain clock-edge actors carry the pipeline
 * work, DVFS service and controller observations are edge-latched
 * wake times refreshed from the engines, and the telemetry sampler
 * and simulated-time budget are arm/defer monitor actors that hop
 * from their due point onto the first edge at-or-after it — so no
 * per-edge polling of the controller, telemetry, or watchdog remains,
 * and the event order (hence every result byte) is independent of
 * scheduling insertion order. See DESIGN.md section 10.
 */

#ifndef MCD_CORE_PROCESSOR_HH
#define MCD_CORE_PROCESSOR_HH

#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "clock/clock_domain.hh"
#include "clock/dvfs.hh"
#include "clock/operating_points.hh"
#include "control/controller.hh"
#include "core/sampling.hh"
#include "core/sched.hh"
#include "core/sim_config.hh"
#include "cpu/core_units.hh"
#include "isa/executor.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "obs/freq_accum.hh"
#include "power/power_model.hh"
#include "trace/trace.hh"

namespace mcd {

/**
 * Thrown by the run-loop watchdog when a simulation stops making
 * commit progress or exceeds its simulated-time budget (see
 * SimConfig::watchdogNoProgressEdges / watchdogMaxTicks): a runaway
 * or deadlocked run becomes a clean structured error instead of a
 * hang, so the experiment engine's per-leg guard can record it and
 * let the rest of the matrix proceed.
 */
class WatchdogError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * One simulated processor instance. Construct, call run(), inspect
 * the result (and the collected trace for profiling runs).
 */
class McdProcessor
{
  public:
    McdProcessor(const SimConfig &config, const Program &program);

    /** Run to HALT (or the configured instruction cap). */
    RunResult run();

    /** The primitive-event trace (after a run with collectTrace). */
    const TraceCollector &trace() const { return collector; }

    /** Move the collected trace out (for use past this object's life). */
    std::vector<InstTrace> takeTrace() { return collector.take(); }

    /** The DVFS operating-point table in use. */
    const DvfsTable &dvfsTable() const { return opTable; }

    /** Test hooks. */
    const CoreUnits &pipeline() const { return *pipe; }
    const ClockDomain &clock(Domain d) const
    { return *clocks[domainIndex(d)]; }

    /** The active frequency controller (nullptr for static runs). */
    const DvfsController *controllerInUse() const { return controller; }

    /** The run's telemetry context; null when all channels are off. */
    const obs::Telemetry *telemetry() const { return telem.get(); }

  private:
    /** One per-domain clock-edge event (MCD configuration). */
    struct EdgeActor final : Actor
    {
        McdProcessor *p = nullptr;
        int di = 0;
        Tick fire(Tick now) override;
    };

    /** The single shared clock edge (singly clocked configuration). */
    struct GlobalEdgeActor final : Actor
    {
        McdProcessor *p = nullptr;
        Tick fire(Tick now) override;
    };

    /**
     * Arm/defer monitor base: the first firing lands at the monitor's
     * exact due tick (armPriority, before any coincident edge) and
     * re-schedules onto the first edge at-or-after it; the second
     * firing — right after that edge — does the work. This reproduces
     * the legacy loop's "first edge at-or-after the due time"
     * observation points without a per-edge compare.
     */
    struct MonitorActor : Actor
    {
        McdProcessor *p = nullptr;
        bool deferred = false;
    };

    /** Periodic telemetry sampling (obs::TimeSeriesSampler cadence). */
    struct SampleActor final : MonitorActor
    {
        Tick fire(Tick now) override;
    };

    /** Simulated-time budget: trips at the first edge past the cap. */
    struct BudgetActor final : MonitorActor
    {
        Tick fire(Tick now) override;
    };

    void domainEdge(Domain d, int di, Tick t);
    void globalEdge(Tick t);
    void progressCheckpoint(Tick t);
    void scheduleAfterNextEdge(Actor *a);
    [[noreturn]] void watchdogTripNow(const std::string &why, Tick at);
    void observeAndControl(Domain d, int di, Tick now);
    void captureSample(Tick now);
    void publishSummaryStats(const RunResult &r);

    SimConfig cfg;
    Program prog;       //!< owned copy: callers may pass temporaries
    DvfsTable opTable;

    // Owns one clock per domain in MCD mode, or a single shared clock.
    std::vector<std::unique_ptr<ClockDomain>> ownedClocks;
    std::array<ClockDomain *, numDomains> clocks{};

    Executor oracle;
    std::unique_ptr<MemoryHierarchy> memory;
    std::unique_ptr<PowerModel> power;
    TraceCollector collector;
    std::unique_ptr<CoreUnits> pipe;

    /** Sampling state machine (sampled runs only; see SimConfig). */
    std::unique_ptr<SamplingPolicy> samplingPolicy;
    std::array<std::unique_ptr<DomainDvfs>, numDomains> dvfs;

    // The control plane: either the caller's controller or an
    // internally owned ScheduleController wrapping cfg.schedule.
    DvfsController *controller = nullptr;
    std::unique_ptr<DvfsController> ownedController;

    // ----- Event-driven run-loop state (valid during run()) -----

    EventScheduler sched;
    std::array<EdgeActor, numDomains> edgeActors;
    GlobalEdgeActor globalActor;
    SampleActor sampleActor;
    BudgetActor budgetActor;

    /** Pending edge time per clock, mirrored so monitor defers and the
     *  edge actors re-arm without chasing ClockDomain pointers. */
    std::array<Tick, numDomains> nextEdgeCache{};

    /** Edge-latched DVFS service times (DomainDvfs::nextEventTime). */
    std::array<Tick, numDomains> dvfsWake{};

    /** Edge-latched controller observation times. */
    std::array<Tick, numDomains> nextObserve{};

    /** Per-domain time-weighted frequency bookkeeping. */
    std::array<obs::FreqAccumulator, numDomains> freqAcc;

    // No-progress watchdog: a lazy edge-count checkpoint instead of a
    // per-edge commit compare (see progressCheckpoint()).
    std::uint64_t edgeCount = 0;
    std::uint64_t progressBaseEdge = 0;
    std::uint64_t progressCommits = 0;
    std::uint64_t nextProgressCheck = ~std::uint64_t{0};
    bool stallInjected = false;

    // Per-run telemetry (never shared across threads while running).
    std::shared_ptr<obs::Telemetry> telem;
};

} // namespace mcd

#endif // MCD_CORE_PROCESSOR_HH
