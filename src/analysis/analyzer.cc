#include "analyzer.hh"

namespace mcd {

AnalyzerConfig
OfflineAnalyzer::configFor(double target_dilation, DvfsKind model,
                           double dvfs_time_scale)
{
    AnalyzerConfig c;
    c.clustering.targetDilation = target_dilation;
    c.clustering.model = model;
    c.clustering.dvfsTimeScale = dvfs_time_scale;
    return c;
}

ShakenTrace
OfflineAnalyzer::shakeTrace(const std::vector<InstTrace> &trace) const
{
    ShakenTrace out;
    IntervalGraphStream stream(trace, config.graph);
    IntervalGraph g;
    while (stream.next(g)) {
        out.eventsTotal += g.size();
        ShakeResult sr = shake(g, config.shaker, config.clustering.fmax,
                               config.clustering.fmin);
        out.slackConsumed += sr.slackConsumed;
        out.intervals.push_back({g.intervalStart, g.intervalEnd,
                                 sr.histogram});
    }
    return out;
}

AnalysisResult
OfflineAnalyzer::cluster(const ShakenTrace &shaken) const
{
    AnalysisResult result;
    result.intervals = shaken.intervals.size();
    result.eventsTotal = shaken.eventsTotal;
    result.slackConsumed = shaken.slackConsumed;
    ClusterResult cr = ClusterPhase(config.clustering).run(shaken.intervals);
    result.schedule = std::move(cr.schedule);
    result.plans = std::move(cr.plans);
    return result;
}

AnalysisResult
OfflineAnalyzer::analyze(const std::vector<InstTrace> &trace) const
{
    return cluster(shakeTrace(trace));
}

} // namespace mcd
