/**
 * @file
 * Per-domain dynamic voltage and frequency scaling engines.
 *
 * Two industrial models per the paper (Section 3):
 *
 *  - Transmeta LongRun: 32 voltage steps across the range, 20 us per
 *    step. Every frequency change requires the domain PLL to re-lock;
 *    re-lock time is normally distributed with mean 15 us over a
 *    10-20 us range, and the domain is idle until lock. Lowering
 *    frequency starts immediately (re-lock, then the voltage ramps
 *    down in the background); raising frequency must wait for the
 *    voltage to reach its target before the re-lock begins.
 *
 *  - Intel XScale: 320 voltage steps, 0.1718 us per step; frequency
 *    tracks voltage continuously and the domain executes through the
 *    change (no idle window). Lowering frequency applies immediately
 *    with the voltage trailing down; raising frequency climbs with the
 *    voltage.
 *
 * Traversing the full voltage range takes 640 us (Transmeta) or 55 us
 * (XScale), as in the paper. `timeScale` proportionally shrinks all
 * transition times; the figure benches use it to keep the ratio of
 * reconfiguration cost to (laptop-scale, shortened) program phase
 * length comparable to the paper's setup — see DESIGN.md section 4.
 */

#ifndef MCD_CLOCK_DVFS_HH
#define MCD_CLOCK_DVFS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "clock/clock_domain.hh"
#include "clock/operating_points.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace mcd {

namespace obs { class Telemetry; }

/** Which scaling technology a configuration models. */
enum class DvfsKind : std::uint8_t {
    None,       //!< no transition cost: requests apply instantly
    Transmeta,  //!< LongRun: stepped voltage + PLL re-lock idle window
    XScale,     //!< smooth ramp, executes through the change
};

const char *dvfsKindName(DvfsKind kind);

/**
 * Parse a model name back to its kind (round-trip of dvfsKindName,
 * case-insensitive). Returns nullopt for unknown names, so CLI/env
 * selection can reject typos instead of silently defaulting.
 */
std::optional<DvfsKind> dvfsKindFromName(std::string_view name);

/**
 * Every valid model name joined ", " ("none, Transmeta, XScale"), so
 * rejection messages can enumerate the choices instead of merely
 * echoing the bad input.
 */
std::string dvfsKindNames();

/** Transition-timing parameters for one DVFS technology. */
struct DvfsParams
{
    DvfsKind kind = DvfsKind::None;
    int stepsFullRange = 1;     //!< voltage steps across [vMin, vMax]
    Tick stepTime = 0;          //!< time per voltage step (ps)
    bool freqTracksVoltage = false; //!< XScale-style continuous ramp
    bool pllRelock = false;     //!< idle re-lock window on freq change
    Tick relockMin = 0;
    Tick relockMax = 0;
    Tick relockMean = 0;
    double relockSigma = 0.0;   //!< ps

    /** Paper's Transmeta LongRun parameters. */
    static DvfsParams transmeta(double time_scale = 1.0);
    /** Paper's Intel XScale parameters. */
    static DvfsParams xscale(double time_scale = 1.0);
    /** Instant (cost-free) scaling, for tests and static configs. */
    static DvfsParams none();

    /** Build from a kind tag. */
    static DvfsParams forKind(DvfsKind kind, double time_scale = 1.0);
};

/**
 * Drives one domain's (frequency, voltage) trajectory.
 *
 * The owner calls update() at every domain clock edge (cheap when no
 * transition is active) and may query executionBlocked() to model the
 * PLL re-lock idle window.
 */
class DomainDvfs
{
  public:
    DomainDvfs(const DvfsParams &params, const DvfsTable &table,
               ClockDomain &domain, std::uint64_t seed);

    /** Ask for a new target frequency at time @p now. */
    void requestFrequency(Tick now, Hertz target);

    /** Advance the transition state machine to time @p now. */
    void update(Tick now);

    /** True while the PLL is re-locking (domain does no work). */
    bool executionBlocked(Tick now) const;

    /**
     * Earliest tick at which this engine has state-machine work to do
     * (PLL re-lock expiry or the next voltage step), or neverTick
     * when idle. The run loop latches this per domain so update() is
     * called only at edges where it can make progress, instead of at
     * every edge; the update(now) contract is unchanged — servicing
     * at the first edge at-or-after the returned tick gives exactly
     * the trajectory of calling update() at every edge, because
     * update() anchors its effects to the recorded event times
     * (relockEnd, the step schedule), not to the calling edge.
     *
     * Invariant relied on (see update()): after any update() or
     * requestFrequency() call returns, an active transition is either
     * re-locking or ramping, so those two times cover every pending
     * event. The 0 fallback (service at the very next edge) keeps a
     * hypothetical third state safe rather than silently stalled.
     */
    Tick
    nextEventTime() const
    {
        if (relocking)
            return relockEnd;
        if (active)
            return ramping ? nextStepTime : 0;
        return neverTick;
    }

    /** True while a transition is in progress. */
    bool transitioning() const { return active; }

    /** Number of requestFrequency() calls that changed the target. */
    std::uint64_t reconfigurations() const { return reconfigs; }

    /**
     * Attach the run's telemetry context: frequency changes and PLL
     * re-lock windows are reported through its hooks, and the
     * frequency series (Figure 8) is read back from the telemetry
     * sampler's frequencyTrace().
     */
    void attachTelemetry(obs::Telemetry *t) { telem = t; }

    /**
     * Fault injection (FaultKind::VfMisorder): apply frequency rises
     * immediately at the request tick, before the voltage ramp — the
     * exact hazard the voltage_leads_freq invariant exists to catch.
     * Deterministic: the breach lands at the request tick itself.
     */
    void injectVfMisorder() { misorder = true; }

  private:
    void applyFrequency(Tick now, Hertz f);
    void applyVoltageLevel(int lvl);
    int levelForVoltage(Volt v) const;
    Volt voltageForLevel(int lvl) const;
    Tick sampleRelock();

    const DvfsParams params;
    const DvfsTable &table;
    ClockDomain &dom;
    obs::Telemetry *telem = nullptr;
    Rng rng;

    bool active = false;
    bool misorder = false;  //!< injected voltage/frequency mis-order
    Hertz targetFreq;
    int level;              //!< current voltage level [0, stepsFullRange]
    int targetLevel;
    bool ramping = false;   //!< voltage ramp in progress
    Tick nextStepTime = 0;

    // PLL re-lock window (Transmeta).
    bool relocking = false;
    Tick relockEnd = 0;
    Hertz relockFreq = 0.0; //!< frequency applied when lock completes

    std::uint64_t reconfigs = 0;
};

} // namespace mcd

#endif // MCD_CLOCK_DVFS_HH
