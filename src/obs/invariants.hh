/**
 * @file
 * Declarative runtime invariants over the telemetry stream.
 *
 * The paper's DVFS models promise physical properties the simulator
 * must never violate: under Transmeta LongRun the voltage settles
 * before a frequency rise is applied (Section 3), queues never exceed
 * their capacity, PLL re-lock windows on one domain never overlap,
 * cumulative energy never decreases, and synchronization dilation
 * stays bounded. Golden-file diffs only catch these indirectly — an
 * InvariantEngine checks them online, at the telemetry hooks where
 * the relevant state changes, and turns every breach into a
 * structured record (rule, domain, tick, observed vs bound).
 *
 * Rules compile from a small spec grammar (MCD_INVARIANTS env,
 * --invariants flag, or an "@file"):
 *
 *     spec   := '@' path | 'default' | '1' | 'on' | rules
 *     rules  := rule (';' rule)*
 *     rule   := 'default'
 *             | 'dilation'          '<=' number
 *             | 'queue_fill'        '<=' (number | 'capacity')
 *             | 'voltage_leads_freq' '==' 'never'
 *             | 'relock_overlap'     '==' 'never'
 *             | 'energy_decreasing'  '==' 'never'
 *             | 'freq_in_table'      '==' 'always'
 *
 * e.g. MCD_INVARIANTS="default" or "dilation<=0.12;queue_fill<=1.0".
 * An '@path' spec reads one rule (or ';'-joined list) per line;
 * '#' starts a comment. 'default' splices in defaultRules(), derived
 * from the paper's Transmeta/XScale models.
 *
 * Violations never abort a run mid-flight: they are counted in the
 * stats registry under invariants.*, recorded (capped), rendered as
 * Chrome-trace instants, and surfaced through RunResult telemetry so
 * the matrix drivers can escalate them to exit code 5 when
 * MCD_INVARIANTS_FATAL is set.
 *
 * Like the rest of the obs layer, one engine belongs to one run (one
 * thread); nothing here is locked.
 */

#ifndef MCD_OBS_INVARIANTS_HH
#define MCD_OBS_INVARIANTS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "clock/operating_points.hh"
#include "common/types.hh"
#include "obs/stats_registry.hh"
#include "obs/time_series.hh"
#include "obs/trace_export.hh"

namespace mcd {
namespace obs {

/** The checkable properties. */
enum class InvariantMetric : std::uint8_t {
    Dilation,           //!< PLL re-lock idle fraction of run time
    QueueFill,          //!< sampled queue fill fraction
    VoltageLeadsFreq,   //!< voltage sufficient for the applied freq
    RelockOverlap,      //!< re-lock windows on one domain are disjoint
    EnergyDecreasing,   //!< cumulative domain energy is monotone
    FreqInTable,        //!< applied frequency within the table range
};

/** Grammar name of a metric ("dilation", "voltage_leads_freq", ...). */
const char *invariantMetricName(InvariantMetric m);

/** One compiled rule. */
struct InvariantRule
{
    InvariantMetric metric = InvariantMetric::Dilation;
    double bound = 0.0;     //!< Dilation / QueueFill upper bound
    std::string text;       //!< canonical spelling ("dilation<=0.25")
};

/** One recorded breach. */
struct InvariantViolation
{
    std::string rule;       //!< canonical rule text
    Domain domain = Domain::FrontEnd;
    Tick tick = 0;
    double observed = 0.0;
    double bound = 0.0;
};

class InvariantEngine
{
  public:
    /**
     * The built-in set: voltage_leads_freq==never,
     * relock_overlap==never, queue_fill<=capacity,
     * energy_decreasing==never, freq_in_table==always, and
     * dilation<=0.5 (generous: the dyn5 oracle targets 5% dilation,
     * but a Transmeta matrix at aggressive time scales can spend far
     * longer re-locking; 0.5 still catches a domain that is idle more
     * than it runs).
     */
    static std::vector<InvariantRule> defaultRules();

    /**
     * Compile a spec string (grammar above; "@path" reads the file).
     * fatal() (FatalError) on malformed input, enumerating the valid
     * metrics — call from config validation to fail fast.
     */
    static std::vector<InvariantRule> parseSpec(const std::string &text);

    /**
     * @param reg per-rule violation counters register here
     * @param trace optional exporter for violation instant events
     */
    InvariantEngine(std::vector<InvariantRule> rules, StatsRegistry &reg,
                    TraceExporter *trace);

    const std::vector<InvariantRule> &rules() const { return set; }

    // ----- hooks, forwarded by Telemetry -----

    /** Initial per-domain state, before the first edge. */
    void runStart(const std::array<Hertz, numDomains> &freq,
                  const std::array<Volt, numDomains> &volt);

    /** Domain @p d switched to @p f with its rail at @p v. */
    void frequencyChange(Domain d, Tick when, Hertz f, Volt v);

    /** Domain @p d re-locks its PLL over [start, end). */
    void relockWindow(Domain d, Tick start, Tick end);

    /** A periodic telemetry sample. */
    void sample(const TimeSample &s);

    /** End of run: final dilation evaluation at @p execTime. */
    void runEnd(Tick execTime);

    // ----- results -----

    std::uint64_t checks() const { return nChecks->value(); }
    std::uint64_t violations() const { return nViolations->value(); }

    /** Detailed records, capped at @ref maxRecords (counts are not). */
    static constexpr std::size_t maxRecords = 64;
    const std::vector<InvariantViolation> &records() const
    { return breaches; }

  private:
    void violate(std::size_t rule_idx, Domain d, Tick tick,
                 double observed, double bound);
    void checkVoltage(Domain d, Tick when, Hertz f, Volt v);

    std::vector<InvariantRule> set;
    std::vector<Counter *> ruleViolations;  //!< parallel to `set`
    Counter *nChecks = nullptr;
    Counter *nViolations = nullptr;
    TraceExporter *exp = nullptr;

    DvfsTable table;    //!< the paper's default frequency/voltage map

    std::array<Hertz, numDomains> lastFreq{};
    std::array<double, numDomains> lastEnergy{};
    std::array<Tick, numDomains> relockAccum{};     //!< idle ps so far
    std::array<Tick, numDomains> relockPrevEnd{};
    Tick lastRelockEnd = 0;     //!< latest window end seen

    std::vector<InvariantViolation> breaches;
};

} // namespace obs
} // namespace mcd

#endif // MCD_OBS_INVARIANTS_HH
