/**
 * @file
 * SMARTS-style interval sampling for the timing kernel.
 *
 * A sampled run alternates detailed windows (the full four-domain
 * timing machine) with functional fast-forward segments that ride the
 * in-order oracle directly, warming the caches and the branch
 * predictor but paying no per-cycle timing work. Fast-forward is
 * "time-frozen": it consumes zero simulated time, and the time and
 * energy its instructions would have cost are extrapolated from the
 * per-instruction rates measured in the preceding detailed window.
 * The head of each detailed window (warmupInsts commits) re-warms the
 * pipeline state and is excluded from the measurement.
 *
 * The policy is pure accounting and gating: the front end asks
 * fetchGated() before fetching (a finished window drains by starving
 * fetch), CoreUnits drives onFrontEndTick() once per front-end cycle
 * and runs the actual fast-forward loop when the policy asks for it.
 * A run with no SamplingParams configured never constructs a policy,
 * so full-detail behavior (and its result bytes) is untouched.
 */

#ifndef MCD_CORE_SAMPLING_HH
#define MCD_CORE_SAMPLING_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mcd {

class PowerModel;

/** Knobs of one sampling policy (SimConfig::sampling, MCD_SAMPLING). */
struct SamplingParams
{
    /**
     * Commits per detailed window, including the warm-up head. The
     * defaults follow the SMARTS insight that many small windows beat
     * few large ones at the same detailed fraction: 10% detailed in
     * 1K-commit windows every 10K instructions (bench/ablation_sampling
     * measures the trade-off; much below ~1K commits the measured tail
     * gets too short and per-window noise dominates).
     */
    std::uint64_t detailedInsts = 1000;

    /** Instructions fast-forwarded between detailed windows. */
    std::uint64_t ffInsts = 9000;

    /** Leading commits of each window excluded from measurement. */
    std::uint64_t warmupInsts = 250;

    /**
     * The policy's stated accuracy contract: sampled execTime and
     * totalEnergy are expected within this relative error of the
     * full-detail run (validated by bench/ablation_sampling and the
     * adpcm+mst error-bound tests).
     */
    double tolerance = 0.10;

    /**
     * Parse a "detailed=N,ff=N,warmup=N[,tol=F]" spec (the MCD_SAMPLING
     * format); fatal() on malformed keys or values.
     */
    static SamplingParams fromSpec(const std::string &text);

    /** Canonical spec string (round-trips through fromSpec). */
    std::string spec() const;

    /** fatal() on out-of-range values. */
    void validate() const;
};

/** One completed detailed measurement window. */
struct SampleWindow
{
    std::uint64_t insts = 0;    //!< measured commits (post warm-up)
    Tick timePs = 0;            //!< simulated time they took
    std::array<double, numDomains> energy{};    //!< per-domain joules
};

/** End-of-run sampling accounting attached to RunResult. */
struct SamplingSummary
{
    std::uint64_t windows = 0;          //!< completed measurement windows
    std::uint64_t detailedCommitted = 0;
    std::uint64_t ffExecuted = 0;
    Tick estFfTimePs = 0;               //!< extrapolated fast-forward time
    double estFfEnergy = 0.0;           //!< extrapolated total joules
    std::array<double, numDomains> estFfEnergyDomain{};
    bool haltDuringFf = false;

    /**
     * Per-window confidence: coefficient of variation (stdev / mean)
     * of the windows' time-per-instruction and energy-per-instruction
     * rates. Small values mean the windows agree and the
     * extrapolation is trustworthy; large values flag phase behavior
     * the operating point undersamples.
     */
    double timePerInstCv = 0.0;
    double energyPerInstCv = 0.0;
};

/**
 * The per-run sampling state machine. Owned by McdProcessor; driven
 * by CoreUnits at front-end edges.
 */
class SamplingPolicy
{
  public:
    SamplingPolicy(const SamplingParams &params, const PowerModel *power);

    const SamplingParams &params() const { return p; }

    /** Fetch is starved while a finished window drains. */
    bool fetchGated() const { return st == State::Drain; }

    /**
     * Advance the state machine at a front-end edge. @p committed is
     * the total detailed commit count, @p windowEmpty whether the
     * instruction window is empty, @p haltSeen whether fetch has seen
     * HALT. Returns true when the caller should run one functional
     * fast-forward segment now.
     */
    bool onFrontEndTick(std::uint64_t committed, Tick now,
                        bool windowEmpty, bool haltSeen);

    /**
     * Instructions the pending fast-forward segment should execute:
     * ffInsts clipped against @p commit_cap (total detailed + FF
     * instructions; 0 = uncapped).
     */
    std::uint64_t ffBudget(std::uint64_t commit_cap,
                           std::uint64_t committed) const;

    /** Record a finished fast-forward segment. */
    void onFastForwardDone(std::uint64_t executed, bool halted,
                           std::uint64_t committed);

    /** Total instructions consumed by fast-forward so far. */
    std::uint64_t ffExecuted() const { return ffTotal; }

    /** Extrapolate and fold the accounting (end of run). */
    SamplingSummary summary(std::uint64_t committed) const;

  private:
    enum class State : std::uint8_t {
        Warmup,     //!< detailed, measurement not started
        Measure,    //!< detailed, measuring
        Drain,      //!< fetch starved; waiting for the window to empty
        Done,       //!< HALT consumed; detailed to the end
    };

    std::array<double, numDomains> domainEnergies() const;

    SamplingParams p;
    const PowerModel *power;

    State st;
    std::uint64_t windowStartCommits = 0;
    std::uint64_t measureStartCommits = 0;
    Tick measureStartTime = 0;
    std::array<double, numDomains> measureStartEnergy{};

    std::vector<SampleWindow> windows;
    /** FF segment lengths; segment i extrapolates from windows[i]. */
    std::vector<std::uint64_t> ffSegments;
    std::uint64_t ffTotal = 0;
    bool ffHalted = false;
};

} // namespace mcd

#endif // MCD_CORE_SAMPLING_HH
