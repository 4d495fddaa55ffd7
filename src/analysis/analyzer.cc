#include "analyzer.hh"

#include <string>

#include "obs/host_prof.hh"

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

IntervalGraph
OfflineAnalyzer::buildInterval(std::span<const InstTrace> records,
                               std::size_t count,
                               const std::string &label) const
{
    obs::HostProfiler::Scope s =
        obs::HostProfiler::instance().phase("depgraph", label);
    IntervalGraph g;
    buildIntervalGraph(records, count, config.graph, g);
    return g;
}

ShakenInterval
OfflineAnalyzer::shakeInterval(IntervalGraph &g,
                               const std::string &label) const
{
    obs::HostProfiler &prof = obs::HostProfiler::instance();
    obs::HostProfiler::Scope s = prof.phase("shake", label);
    ShakeResult sr = shake(g, config.shaker, config.clustering.fmax,
                           config.clustering.fmin);
    if (prof.enabled())
        s.relabel(label + ", " + std::to_string(g.size()) + " events, " +
                  std::to_string(sr.passesWalked) + " passes");
    return {{g.intervalStart, g.intervalEnd, sr.histogram}, g.size(),
            sr.slackConsumed};
}

ShakenTrace
OfflineAnalyzer::shakeTrace(const std::vector<InstTrace> &trace) const
{
    ShakenTrace out;
    for (std::size_t pos = 0; pos < trace.size();) {
        const std::size_t end =
            intervalEnd(trace, pos, config.graph.intervalLength);
        const std::string label =
            "interval " + std::to_string(out.intervals.size());
        IntervalGraph g = buildInterval(std::span(trace).subspan(pos),
                                        end - pos, label);
        out.append(shakeInterval(g, label));
        pos = end;
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
