/**
 * @file
 * McdProcessor: the top-level façade binding the clock domains, DVFS
 * engines, memory hierarchy, out-of-order core, power model, and
 * trace collector into one runnable simulated processor.
 *
 * The run loop fires the earliest pending clock edge (the lowest
 * domain index on a tie) and, right after it, takes a telemetry
 * sample or trips the simulated-time budget once that is due, so each
 * lands on the first edge at or after its due tick. DVFS service and
 * controller observations are edge-latched wake times refreshed from
 * the engines. See DESIGN.md section 10.
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

    /**
     * Hand the trace of a collectTrace run to @p sink interval by
     * interval as it commits, instead of keeping it (call before
     * run()). A run that throws leaves its open intervals unsent.
     */
    void streamTrace(IntervalSink sink) { collector.stream(std::move(sink)); }

    /** The DVFS operating-point table in use. */
    const DvfsTable &dvfsTable() const { return opTable; }

    /** Test hooks. */
    const CoreUnits &pipeline() const { return *pipe; }
    const ClockDomain &clock(Domain d) const
    { return *clocks[domainIndex(d)]; }
    const PowerModel &powerModel() const { return *power; }

    /** The active frequency controller (nullptr for static runs). */
    const DvfsController *controllerInUse() const { return controller; }

    /** The run's telemetry context; null when all channels are off. */
    const obs::Telemetry *telemetry() const { return telem.get(); }

  private:
    void domainEdge(Domain d, int di, Tick t);
    void globalEdge(Tick t);
    void progressCheckpoint(Tick t);
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

    // ----- Run-loop state (valid during run()) -----

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
