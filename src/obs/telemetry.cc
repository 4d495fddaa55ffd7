#include "telemetry.hh"

#include <cctype>
#include <string>
#include <vector>

#include "common/json_writer.hh"

namespace mcd {
namespace obs {

namespace {

std::string
domainStat(const char *group, Domain d, const char *leaf)
{
    std::string s(group);
    s += '.';
    for (const char *p = domainShortName(d); *p; ++p)
        s += static_cast<char>(std::tolower(
            static_cast<unsigned char>(*p)));
    s += '.';
    s += leaf;
    return s;
}

} // namespace

TelemetryConfig
TelemetryConfig::full(Tick period_ps)
{
    TelemetryConfig c;
    c.samplePeriod = period_ps;
    c.traceEvents = true;
    c.freqSeries = true;
    return c;
}

Telemetry::Telemetry(const TelemetryConfig &config)
    : cfg(config), ts(config.samplePeriod), exp(config.traceEvents)
{
    // The invariant engine registers its counters first so the
    // registry order (and thus the merged stats JSON) is stable no
    // matter when the run publishes its own stats.
    if (!cfg.invariants.empty()) {
        inv = std::make_unique<InvariantEngine>(
            InvariantEngine::parseSpec(cfg.invariants), reg,
            exp.enabled() ? &exp : nullptr);
    }

    // Occupancy buckets: ten even fill-fraction deciles.
    std::vector<double> occBounds;
    for (int i = 1; i <= 10; ++i)
        occBounds.push_back(0.1 * i);

    for (int d = 0; d < numDomains; ++d) {
        Domain dom = static_cast<Domain>(d);
        freqChanges[d] = &reg.counter(
            domainStat("clock", dom, "freq_changes"),
            "frequency changes applied to the domain clock");
        relockWindows[d] = &reg.counter(
            domainStat("clock", dom, "relock_windows"),
            "PLL re-lock idle windows entered");
        relockPs[d] = &reg.counter(
            domainStat("clock", dom, "relock_ps"),
            "picoseconds spent idle in PLL re-lock");
        decisions[d] = &reg.counter(
            domainStat("control", dom, "requests"),
            "frequency requests a controller issued for the domain");
        occupancyHist[d] = &reg.histogram(
            domainStat("pipeline", dom, "occupancy"), occBounds,
            "sampled fill fraction of the domain's primary queue");
    }
}

void
Telemetry::onRunStart(const std::array<Hertz, numDomains> &freq,
                      const std::array<Volt, numDomains> &volt)
{
    if (inv)
        inv->runStart(freq, volt);
}

void
Telemetry::onFrequencyChange(Domain d, Tick when, Hertz f, Volt v)
{
    freqChanges[domainIndex(d)]->inc();
    if (cfg.freqSeries)
        ts.noteFrequency(d, when, f);
    if (inv)
        inv->frequencyChange(d, when, f, v);
    if (exp.enabled()) {
        std::string name(domainShortName(d));
        name += " frequency";
        exp.counter(std::move(name), "MHz", domainIndex(d), when, f / 1e6);
    }
}

void
Telemetry::onRelockWindow(Domain d, Tick start, Tick end)
{
    int di = domainIndex(d);
    relockWindows[di]->inc();
    relockPs[di]->inc(end - start);
    if (inv)
        inv->relockWindow(d, start, end);
    if (exp.enabled())
        exp.complete("PLL re-lock", "dvfs", di, start, end - start);
}

void
Telemetry::onControllerDecision(const char *controller, Domain d,
                                Tick when, Hertz target)
{
    decisions[domainIndex(d)]->inc();
    if (exp.enabled()) {
        std::string args = json::member("mhz", json::number(target / 1e6));
        args += ", ";
        args += json::member("controller", json::quote(controller));
        std::string name("request ");
        name += domainShortName(d);
        exp.instant(std::move(name), "control", domainIndex(d), when,
                    std::move(args));
    }
}

void
Telemetry::onSample(const TimeSample &s)
{
    for (int d = 0; d < numDomains; ++d)
        occupancyHist[d]->add(s.occupancy[d]);
    if (inv)
        inv->sample(s);
    if (exp.enabled()) {
        for (int d = 0; d < numDomains; ++d) {
            std::string name(domainShortName(static_cast<Domain>(d)));
            name += " occupancy";
            exp.counter(std::move(name), "fill", d, s.when,
                        s.occupancy[d]);
        }
    }
    ts.record(s);
}

void
Telemetry::onWatchdogTrip(Tick when)
{
    reg.counter("run.watchdog_trips",
                "runs aborted by the no-progress/budget watchdog")
        .inc();
    if (exp.enabled())
        exp.instant("watchdog trip", "fault", 0, when);
}

void
Telemetry::onRunEnd(Tick execTime)
{
    if (inv)
        inv->runEnd(execTime);
}

} // namespace obs
} // namespace mcd
