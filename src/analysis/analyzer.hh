/**
 * @file
 * The complete offline reconfiguration tool: trace -> per-interval
 * dependence DAGs -> shaker -> histograms -> clustering -> schedule
 * (paper Section 3.2). The schedule is then fed to a second, dynamic
 * simulation run.
 */

#ifndef MCD_ANALYSIS_ANALYZER_HH
#define MCD_ANALYSIS_ANALYZER_HH

#include <span>
#include <string>
#include <vector>

#include "analysis/clustering.hh"
#include "analysis/dep_graph.hh"
#include "analysis/schedule.hh"
#include "analysis/shaker.hh"
#include "trace/trace.hh"

namespace mcd {

/** Combined configuration for the offline tool. */
struct AnalyzerConfig
{
    DepGraphConfig graph;
    ShakerConfig shaker;
    ClusteringConfig clustering;
};

/** One shaken interval: its histograms and its share of the totals. */
struct ShakenInterval
{
    IntervalHistos histos;
    std::size_t events = 0;
    double slackConsumed = 0.0;
};

/**
 * The target-independent half of the offline tool: every interval's
 * shaken frequency histograms. The DAGs, the shaker and the histograms
 * depend only on the trace and the graph/shaker configuration, never
 * on the dilation target, so one ShakenTrace serves every target.
 * Intervals are shaken independently; appending them in interval
 * order sums the totals in one order, whoever shook them.
 */
struct ShakenTrace
{
    std::vector<IntervalHistos> intervals;  //!< in interval order
    std::size_t eventsTotal = 0;
    double slackConsumed = 0.0;

    /** Append the next interval. */
    void
    append(const ShakenInterval &iv)
    {
        intervals.push_back(iv.histos);
        eventsTotal += iv.events;
        slackConsumed += iv.slackConsumed;
    }
};

/** Everything the offline tool produced (schedule + diagnostics). */
struct AnalysisResult
{
    ReconfigSchedule schedule;
    std::array<std::vector<PlanSegment>, numDomains> plans;
    std::size_t intervals = 0;
    std::size_t eventsTotal = 0;
    double slackConsumed = 0.0;
};

/**
 * The offline analyzer façade.
 */
class OfflineAnalyzer
{
  public:
    explicit OfflineAnalyzer(AnalyzerConfig cfg) : config(std::move(cfg))
    {}

    /** Build the default configuration for a dilation target. */
    static AnalyzerConfig
    configFor(double target_dilation, DvfsKind model,
              double dvfs_time_scale = 1.0);

    /**
     * Build one interval's DAG (@p records and @p count as
     * buildIntervalGraph takes them) under a "depgraph" host-profile
     * slice detailed @p label. The records may be freed once it
     * returns.
     */
    IntervalGraph buildInterval(std::span<const InstTrace> records,
                                std::size_t count,
                                const std::string &label) const;

    /**
     * Shake a built interval and keep only its histograms and totals,
     * under a "shake" slice detailed "<label>, <n> events, <p> passes"
     * (the pass pairs walked). Reads the shaker settings and the
     * clustering fmin/fmax, but not the dilation target.
     */
    ShakenInterval shakeInterval(IntervalGraph &g,
                                 const std::string &label) const;

    /**
     * Shake every interval of a whole trace, one at a time, in
     * interval order; interval k is labelled "interval k".
     */
    ShakenTrace shakeTrace(const std::vector<InstTrace> &trace) const;

    /** Cluster a shaken trace into this target's schedule. */
    AnalysisResult cluster(const ShakenTrace &shaken) const;

    /** Run the full analysis over a profiling trace:
     *  cluster(shakeTrace(trace)). */
    AnalysisResult analyze(const std::vector<InstTrace> &trace) const;

    const AnalyzerConfig &cfg() const { return config; }

  private:
    AnalyzerConfig config;
};

} // namespace mcd

#endif // MCD_ANALYSIS_ANALYZER_HH
