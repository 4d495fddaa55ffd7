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

ShakenTrace
OfflineAnalyzer::shakeTrace(const std::vector<InstTrace> &trace) const
{
    ShakenTrace out;
    obs::HostProfiler &prof = obs::HostProfiler::instance();
    IntervalGraphStream stream(trace, config.graph);
    IntervalGraph g;
    while (!stream.done()) {
        // One depgraph and one shake slice per interval, labelled by
        // the interval's index (and the shake by its event count).
        const std::string interval =
            "interval " + std::to_string(out.intervals.size());
        {
            obs::HostProfiler::Scope s = prof.phase("depgraph", interval);
            stream.next(g);
        }
        out.eventsTotal += g.size();
        obs::HostProfiler::Scope s = prof.phase(
            "shake", interval + ", " + std::to_string(g.size()) + " events");
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
