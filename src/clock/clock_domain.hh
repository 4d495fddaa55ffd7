/**
 * @file
 * A locally synchronous clock domain with independent per-edge jitter.
 *
 * The paper models each domain's clock as generated by a local PLL
 * from a common external 100 MHz source, with normally distributed
 * jitter (mean 0, sigma 110 ps = 100 ps external + 10 ps internal PLL)
 * applied cycle-by-cycle, and randomized initial phases. The top-level
 * simulator tracks all edges on the global picosecond axis exactly as
 * described in paper Section 3.1.
 */

#ifndef MCD_CLOCK_CLOCK_DOMAIN_HH
#define MCD_CLOCK_CLOCK_DOMAIN_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/random.hh"
#include "common/types.hh"

namespace mcd {

/** Paper value: jitter standard deviation in picoseconds. */
inline constexpr double defaultJitterSigmaPs = 110.0;

/** A Box-Muller pair: r cos(theta) and r sin(theta). */
struct NormalPair
{
    double c = 0.0;
    double s = 0.0;
};

/**
 * Box-Muller pair for uniforms @p u1 in [1e-300, 1) and @p u2 in
 * [0, 1): r = sqrt(-2 ln u1), theta = 2 pi u2, with ln, sin and cos
 * evaluated from tables plus short polynomials instead of libm. Each
 * component lies within fastNormalBound * r of what Rng::normal's
 * libm form gives for the same uniforms (derivation: DESIGN.md §10).
 */
NormalPair fastNormalPair(double u1, double u2);

/** Relative bound of fastNormalPair: |fast - libm| <= this * r. */
inline constexpr double fastNormalBound = 0x1p-48;

/**
 * Guard band of the fast jitter path, per picosecond of (sigma +
 * period): an edge whose fast (period + jitter) lies within
 * jitterGuardScale * (sigma + period) of an integer tick, or of the
 * quarter-period floor, is recomputed with libm. That band is about
 * 7000 times the largest possible fast-vs-libm difference.
 */
inline constexpr double jitterGuardScale = 0x1p-30;

class ClockDomain;

/**
 * Told of every voltage change of the clocks that name it: the power
 * model's V² cache, behind an interface so clock/ needs no power/.
 */
class VoltageWatcher
{
  public:
    virtual void voltageChanged(const ClockDomain &clock) = 0;

  protected:
    ~VoltageWatcher() = default;
};

/**
 * One clock domain: an edge generator on the global Tick axis.
 *
 * Usage: the simulator repeatedly takes the domain whose
 * peekNextEdge() is earliest, calls advance() on it, and ticks the
 * hardware bound to it. Frequency changes take effect when computing
 * the edge after the currently scheduled one (a real PLL's output
 * period cannot change retroactively mid-cycle).
 *
 * Jitter: the clock draws its uniforms in Box-Muller pairs, exactly
 * as Rng::normalClamped(0, sigma, 3) would, a block at a time. Each
 * edge takes the fast value of its draw when the guard band proves
 * that it truncates to the same Tick as the libm value, and
 * recomputes the libm value otherwise, so every edge time is
 * bit-identical to the plain libm generator.
 */
class ClockDomain
{
  public:
    /**
     * @param id which architectural domain this clock drives
     * @param f initial frequency
     * @param seed RNG seed (jitter + initial phase)
     * @param jitter_sigma_ps per-edge Gaussian jitter sigma; 0 disables
     * @param randomize_phase start at a random offset within one period
     */
    ClockDomain(Domain id, Hertz f, std::uint64_t seed,
                double jitter_sigma_ps = defaultJitterSigmaPs,
                bool randomize_phase = true);

    Domain id() const { return domainId; }

    /** Time of the most recent edge. */
    Tick now() const { return curEdge; }

    /** Time of the next scheduled edge. */
    Tick peekNextEdge() const { return nextEdge; }

    /** Move to the next edge; returns its time. */
    Tick advance();

    /** Number of edges consumed so far. */
    std::uint64_t cycles() const { return edgeCount; }

    /** Current frequency. */
    Hertz frequency() const { return freq; }

    /**
     * Change frequency. Affects edges scheduled after the currently
     * pending one.
     */
    void setFrequency(Hertz f);

    /** Current supply voltage (owned here for the power model). */
    Volt voltage() const { return volt; }

    /**
     * Change the supply voltage and tell the watcher. The callers in
     * src/ are McdProcessor's constructor and DomainDvfs (its
     * constructor and applyVoltageLevel); test_power pins that list.
     */
    void
    setVoltage(Volt v)
    {
        volt = v;
        if (watcher)
            watcher->voltageChanged(*this);
    }

    /** The one watcher of this clock's voltage (nullptr: none). */
    void watchVoltage(VoltageWatcher *w) { watcher = w; }
    const VoltageWatcher *voltageWatcher() const { return watcher; }

    /** Nominal period at the current frequency, in picoseconds. */
    double period() const { return per; }

    /** Edges whose jitter the guard sent to the libm path. */
    std::uint64_t jitterFallbacks() const { return fallbacks; }

    /**
     * Test hook: from the next edge on, send every jittered edge to
     * the libm path (@p on false takes effect at the next block).
     */
    void forceJitterFallback(bool on);

  private:
    static constexpr int jitterBlock = 64;  //!< values per refill

    Domain domainId;
    Hertz freq;
    double per = 0.0;           //!< periodPs(freq)
    double quarterPer = 0.0;    //!< per * 0.25, the edge-spacing floor
    double guard = 0.0;         //!< guard band M, in picoseconds
    bool forceFallback = false;
    Volt volt = 1.2;
    VoltageWatcher *watcher = nullptr;
    double jitterSigma;
    double jitterHi;            //!< the +3 sigma clamp
    Rng rng;
    Tick curEdge = 0;
    Tick nextEdge = 0;
    std::uint64_t edgeCount = 0;
    std::uint64_t fallbacks = 0;

    // The current block: fast clamped jitter values, in draw order,
    // and the uniform pairs they came from (for the libm fallback).
    int jitterPos = jitterBlock;
    std::array<double, jitterBlock> fastJitter{};
    std::array<double, jitterBlock / 2> pairU1{};
    std::array<double, jitterBlock / 2> pairU2{};

    void setPeriod(Hertz f);
    void refillJitter();
    double exactJitter(int i) const;
    Tick scheduleAfter(Tick from);
};

} // namespace mcd

#endif // MCD_CLOCK_CLOCK_DOMAIN_HH
