/**
 * @file
 * The complete offline reconfiguration tool: trace -> per-interval
 * dependence DAGs -> shaker -> histograms -> clustering -> schedule
 * (paper Section 3.2). The schedule is then fed to a second, dynamic
 * simulation run.
 */

#ifndef MCD_ANALYSIS_ANALYZER_HH
#define MCD_ANALYSIS_ANALYZER_HH

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

/**
 * The target-independent half of the offline tool: every interval's
 * shaken frequency histograms. The DAGs, the shaker and the histograms
 * depend only on the trace and the graph/shaker configuration, never
 * on the dilation target, so one ShakenTrace serves every target.
 */
struct ShakenTrace
{
    std::vector<IntervalHistos> intervals;  //!< in interval order
    std::size_t eventsTotal = 0;
    double slackConsumed = 0.0;
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
     * Build and shake each interval's DAG, one interval at a time, and
     * keep only the histograms. Reads the graph and shaker settings
     * and the clustering fmin/fmax, but not the dilation target.
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
