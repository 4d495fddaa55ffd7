/**
 * @file
 * Top-level simulation configuration and run results.
 */

#ifndef MCD_CORE_SIM_CONFIG_HH
#define MCD_CORE_SIM_CONFIG_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clock/dvfs.hh"
#include "common/types.hh"
#include "core/sampling.hh"
#include "cpu/params.hh"
#include "cpu/pipeline_stats.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "obs/telemetry.hh"
#include "power/energy_params.hh"

namespace mcd {

class ReconfigSchedule;
class DvfsController;

namespace fault { class FaultPlan; }

/** Globally synchronous vs. multiple clock domains. */
enum class ClockingStyle : std::uint8_t {
    SingleClock,    //!< baseline: one clock, no sync penalties
    Mcd,            //!< four independent domain clocks
};

/** Everything needed to instantiate one simulated processor run. */
struct SimConfig
{
    CoreParams core;
    MemParams mem;
    EnergyParams energy;

    ClockingStyle clocking = ClockingStyle::Mcd;
    double jitterSigmaPs = defaultJitterSigmaPs;
    double syncFraction = defaultSyncFraction;

    /** Initial per-domain frequencies (index by Domain). */
    std::array<Hertz, numDomains> domainFrequency{1e9, 1e9, 1e9, 1e9};

    /** DVFS transition technology for dynamic runs. */
    DvfsKind dvfs = DvfsKind::None;
    double dvfsTimeScale = 1.0;

    /**
     * Frequency-control policy for dynamic runs (not owned; stateful,
     * so one controller serves exactly one run). Mutually exclusive
     * with @ref schedule.
     */
    DvfsController *controller = nullptr;

    /**
     * Reconfiguration schedule for dynamic runs (not owned).
     * Convenience for the offline-oracle path: the processor wraps it
     * in an internal ScheduleController.
     */
    const ReconfigSchedule *schedule = nullptr;

    /**
     * Telemetry channels for this run (stats registry, periodic
     * sampler, Chrome trace events). The freqSeries channel carries
     * the per-domain frequency traces of Figure 8, read back through
     * RunResult::telemetry->sampler().frequencyTrace(d).
     */
    obs::TelemetryConfig telemetry;

    /** Collect the primitive-event trace (profiling runs). */
    bool collectTrace = false;

    /**
     * SMARTS-style interval sampling (core/sampling.hh): detailed
     * windows alternating with functional fast-forward. Unset = full
     * detail, which stays byte-identical to pre-sampling builds.
     * Incompatible with collectTrace (the dependence-graph analysis
     * needs every instruction's timestamps).
     */
    std::optional<SamplingParams> sampling;

    /** Stop after this many committed instructions (0 = run to HALT). */
    std::uint64_t maxInstructions = 0;

    /**
     * Watchdog: clock edges with no commit progress before the run is
     * aborted with a WatchdogError (0 disables the check).
     */
    std::uint64_t watchdogNoProgressEdges = 40'000'000;

    /**
     * Watchdog: absolute simulated-time budget in picoseconds; a run
     * still going past this is aborted with a WatchdogError
     * (0 = unlimited).
     */
    Tick watchdogMaxTicks = 0;

    /**
     * Fault-injection plan (not owned; shared read-only across runs)
     * and this run's leg site name ("bench/leg") within it. A plan
     * with a Stall armed at faultSite makes the run stop reporting
     * commit progress, which the watchdog must then catch.
     */
    const fault::FaultPlan *faults = nullptr;
    std::string faultSite;

    std::uint64_t seed = 1;

    /**
     * Fail fast on an inconsistent configuration: fatal() with an
     * actionable message instead of a mid-run panic. Checks the
     * operating-point table's monotonicity, frequency/parameter
     * ranges, schedule sanity, and control-plane exclusivity. Called
     * by McdProcessor before every run. Reports *every* violation in
     * one message (see validateAll), not just the first.
     */
    void validate() const;

    /**
     * All violations validate() would report, one message per defect;
     * empty means the configuration is valid. Collecting the full
     * list (instead of failing on the first) is what fuzz triage
     * needs: a sampled configuration with three broken dimensions is
     * one scenario, not three serial discoveries.
     */
    std::vector<std::string> validateAll() const;
};

/**
 * Structured description of one failed run leg: where it failed, how
 * (fatal/panic/watchdog/injected/dependency/exception), and how many
 * attempts were made before giving up.
 */
struct RunError
{
    std::string site;       //!< "bench/leg" (empty outside the matrix)
    std::string kind;
    std::string message;
    int attempts = 1;
};

/** Per-domain summary of a run. */
struct DomainSummary
{
    std::uint64_t cycles = 0;
    double energy = 0.0;
    Hertz avgFrequency = 0.0;   //!< time-weighted
    Hertz minFrequency = 0.0;
    Hertz maxFrequency = 0.0;
    std::uint64_t reconfigurations = 0;
};

/** The result of one simulated run. */
struct RunResult
{
    std::string benchmark;
    Tick execTime = 0;              //!< time of the last commit
    std::uint64_t committed = 0;
    double ipc = 0.0;               //!< committed / front-end cycles
    double totalEnergy = 0.0;
    double energyDelay = 0.0;       //!< totalEnergy * seconds

    std::array<DomainSummary, numDomains> domains;
    PipelineStats pipeline;
    CacheStats l1i, l1d, l2;
    std::uint64_t bpredLookups = 0;
    double bpredMispredictRate = 0.0;

    /** Sampling accounting when the run was sampled; unset otherwise.
     *  execTime/totalEnergy/committed above already include the
     *  extrapolated fast-forward contribution. */
    std::optional<SamplingSummary> sampling;

    /**
     * The run's telemetry context (stats registry, sampler, trace
     * events) when SimConfig::telemetry enabled any channel; null
     * otherwise. Shared so results can be copied cheaply; the
     * telemetry itself is immutable once the run finishes.
     */
    std::shared_ptr<const obs::Telemetry> telemetry;

    /**
     * Set when the run failed: the experiment engine's per-leg guard
     * caught an error and recorded it here instead of letting it
     * abort the rest of the matrix. A failed result's numeric fields
     * are all default (zero).
     */
    std::optional<RunError> error;

    /** Attempts the leg guard made (> 1 after a transient retry). */
    int attempts = 1;

    bool failed() const { return error.has_value(); }
};

} // namespace mcd

#endif // MCD_CORE_SIM_CONFIG_HH
