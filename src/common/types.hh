/**
 * @file
 * Fundamental types shared across the MCD simulator: the picosecond
 * time base, frequency/voltage units, and clock-domain identifiers.
 */

#ifndef MCD_COMMON_TYPES_HH
#define MCD_COMMON_TYPES_HH

#include <cstdint>
#include <string>

namespace mcd {

/** Simulated time in picoseconds. All clock edges live on this axis. */
using Tick = std::uint64_t;

/** A tick no event reaches: "not scheduled" for every wake time. */
inline constexpr Tick neverTick = ~Tick{0};

/** Signed time difference in picoseconds. */
using TickDelta = std::int64_t;

/** Frequency in hertz. */
using Hertz = double;

/** Supply voltage in volts. */
using Volt = double;

/** Picoseconds per second. */
inline constexpr double ticksPerSecond = 1e12;

/** Convert a frequency to a clock period in picoseconds. */
inline double
periodPs(Hertz f)
{
    return ticksPerSecond / f;
}

/** Convert picoseconds to seconds. */
inline double
toSeconds(Tick t)
{
    return static_cast<double>(t) / ticksPerSecond;
}

/** Convert seconds to picoseconds. */
inline Tick
fromSeconds(double s)
{
    return static_cast<Tick>(s * ticksPerSecond);
}

/** Convert microseconds to picoseconds. */
inline Tick
fromMicroseconds(double us)
{
    return static_cast<Tick>(us * 1e6);
}

/**
 * The four on-chip clock domains of the MCD processor (paper Figure 1).
 *
 * The main-memory interface is an implicit fifth, external domain that
 * always runs at full speed; it is not voltage/frequency scaled and is
 * modeled by fixed-latency DRAM in src/mem.
 */
enum class Domain : std::uint8_t {
    FrontEnd = 0,   //!< fetch, bpred, rename, dispatch, ROB, L1 I-cache
    Integer = 1,    //!< integer issue queue, int ALUs, int register file
    FloatingPoint = 2, //!< FP issue queue, FP ALUs, FP register file
    LoadStore = 3,  //!< load/store queue, L1 D-cache, L2 cache
};

/** Number of on-chip clock domains. */
inline constexpr int numDomains = 4;

/** Domains eligible for dynamic scaling (front end is pinned). */
inline constexpr Domain scalableDomains[] = {
    Domain::Integer, Domain::FloatingPoint, Domain::LoadStore,
};

/** Index form of a Domain for array addressing. */
inline constexpr int
domainIndex(Domain d)
{
    return static_cast<int>(d);
}

/** Inverse of domainIndex (@p i must be in [0, numDomains)). */
inline constexpr Domain
domainFromIndex(int i)
{
    return static_cast<Domain>(i);
}

/**
 * One recorded frequency change: a point in a per-domain frequency
 * series (Figure 8 traces, telemetry frequency series). Lives here
 * rather than in clock/ because both the DVFS engines (producers) and
 * the observability layer (consumer) speak it.
 */
struct FreqTracePoint
{
    Tick when = 0;
    Hertz frequency = 0.0;
};

/**
 * Render a tick for human-facing output (watchdog messages, log
 * warnings, bench summaries): picoseconds up to 10 ns, then ns up to
 * 10 us, then us — always suffixed with the raw tick so the exact
 * value stays greppable, e.g. "15.000 us (15000000 ps)".
 */
std::string formatTick(Tick t);

/** Human-readable domain name. */
const char *domainName(Domain d);

/** Short (3-char) domain name used in table output. */
const char *domainShortName(Domain d);

} // namespace mcd

#endif // MCD_COMMON_TYPES_HH
