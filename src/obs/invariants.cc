#include "invariants.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "common/spec.hh"

namespace mcd {
namespace obs {

namespace {

// Comparison slack. Voltage levels quantize upward (DomainDvfs uses a
// ceil with its own 1e-9 slack), so a clean run's rail can sit within
// rounding noise of the exact linear-map voltage; everything else is
// exact arithmetic guarded against representation error only.
constexpr double voltEps = 1e-6;
constexpr double fillEps = 1e-9;
constexpr double energyEps = 1e-12;

[[noreturn]] void
badRule(const std::string &rule, const char *why)
{
    fatal("MCD_INVARIANTS: bad rule '" + rule + "': " + why +
          " (grammar: default | dilation<=F | queue_fill<=F|capacity | "
          "voltage_leads_freq==never | relock_overlap==never | "
          "energy_decreasing==never | freq_in_table==always; "
          "rules joined by ';', or @file with one rule per line)");
}

InvariantRule
makeRule(InvariantMetric m, double bound)
{
    InvariantRule r;
    r.metric = m;
    r.bound = bound;
    switch (m) {
      case InvariantMetric::Dilation:
      case InvariantMetric::QueueFill: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s<=%g",
                      invariantMetricName(m), bound);
        r.text = buf;
        break;
      }
      case InvariantMetric::FreqInTable:
        r.text = std::string(invariantMetricName(m)) + "==always";
        break;
      default:
        r.text = std::string(invariantMetricName(m)) + "==never";
        break;
    }
    return r;
}

void
parseRule(const std::string &raw, std::vector<InvariantRule> &out)
{
    const std::string rule = spec::trim(raw);
    if (rule.empty())
        return;
    if (rule == "default" || rule == "1" || rule == "on") {
        std::vector<InvariantRule> defs = InvariantEngine::defaultRules();
        out.insert(out.end(), defs.begin(), defs.end());
        return;
    }

    std::size_t le = rule.find("<=");
    std::size_t eq = rule.find("==");
    if (le != std::string::npos) {
        std::string name = spec::trim(rule.substr(0, le));
        std::string val = spec::trim(rule.substr(le + 2));
        InvariantMetric m;
        if (name == invariantMetricName(InvariantMetric::Dilation))
            m = InvariantMetric::Dilation;
        else if (name == invariantMetricName(InvariantMetric::QueueFill))
            m = InvariantMetric::QueueFill;
        else
            badRule(rule, "only dilation and queue_fill take '<='");
        double bound;
        if (m == InvariantMetric::QueueFill && val == "capacity") {
            bound = 1.0;
        } else {
            bound = spec::parseDouble(
                "MCD_INVARIANTS: bad rule '" + rule + "': bound", val);
        }
        if (bound < 0.0)
            badRule(rule, "bound must be >= 0");
        out.push_back(makeRule(m, bound));
        return;
    }
    if (eq != std::string::npos) {
        std::string name = spec::trim(rule.substr(0, eq));
        std::string val = spec::trim(rule.substr(eq + 2));
        InvariantMetric m;
        bool wantAlways = false;
        if (name ==
            invariantMetricName(InvariantMetric::VoltageLeadsFreq)) {
            m = InvariantMetric::VoltageLeadsFreq;
        } else if (name ==
                   invariantMetricName(InvariantMetric::RelockOverlap)) {
            m = InvariantMetric::RelockOverlap;
        } else if (name ==
                   invariantMetricName(
                       InvariantMetric::EnergyDecreasing)) {
            m = InvariantMetric::EnergyDecreasing;
        } else if (name ==
                   invariantMetricName(InvariantMetric::FreqInTable)) {
            m = InvariantMetric::FreqInTable;
            wantAlways = true;
        } else {
            badRule(rule, "unknown metric");
        }
        if (val != (wantAlways ? "always" : "never")) {
            badRule(rule, wantAlways ? "freq_in_table takes '==always'"
                                     : "this metric takes '==never'");
        }
        out.push_back(makeRule(m, 0.0));
        return;
    }
    badRule(rule, "expected '<=' or '=='");
}

} // namespace

const char *
invariantMetricName(InvariantMetric m)
{
    switch (m) {
      case InvariantMetric::Dilation: return "dilation";
      case InvariantMetric::QueueFill: return "queue_fill";
      case InvariantMetric::VoltageLeadsFreq: return "voltage_leads_freq";
      case InvariantMetric::RelockOverlap: return "relock_overlap";
      case InvariantMetric::EnergyDecreasing: return "energy_decreasing";
      case InvariantMetric::FreqInTable: return "freq_in_table";
    }
    return "?";
}

std::vector<InvariantRule>
InvariantEngine::defaultRules()
{
    std::vector<InvariantRule> out;
    out.push_back(makeRule(InvariantMetric::VoltageLeadsFreq, 0.0));
    out.push_back(makeRule(InvariantMetric::RelockOverlap, 0.0));
    out.push_back(makeRule(InvariantMetric::QueueFill, 1.0));
    out.push_back(makeRule(InvariantMetric::EnergyDecreasing, 0.0));
    out.push_back(makeRule(InvariantMetric::FreqInTable, 0.0));
    out.push_back(makeRule(InvariantMetric::Dilation, 0.5));
    return out;
}

std::vector<InvariantRule>
InvariantEngine::parseSpec(const std::string &text)
{
    std::vector<InvariantRule> out;
    std::string body = spec::trim(text);
    if (body.empty())
        return out;

    if (body[0] == '@') {
        std::ifstream in(body.substr(1));
        if (!in) {
            fatal("MCD_INVARIANTS: cannot read spec file '" +
                  body.substr(1) + "'");
        }
        std::string line;
        while (std::getline(in, line)) {
            std::size_t hash = line.find('#');
            if (hash != std::string::npos)
                line.resize(hash);
            for (const std::string &item : spec::split(line, ';'))
                parseRule(item, out);
        }
        if (out.empty())
            fatal("MCD_INVARIANTS: spec file '" + body.substr(1) +
                  "' contains no rules");
        return out;
    }

    for (const std::string &item : spec::split(body, ';'))
        parseRule(item, out);
    if (out.empty())
        badRule(text, "no rules in spec");
    return out;
}

InvariantEngine::InvariantEngine(std::vector<InvariantRule> rules,
                                 StatsRegistry &reg, TraceExporter *trace)
    : set(std::move(rules)), exp(trace)
{
    nChecks = &reg.counter("invariants.checks",
                           "invariant evaluations performed");
    nViolations = &reg.counter("invariants.violations",
                               "invariant evaluations that failed");
    ruleViolations.reserve(set.size());
    for (const InvariantRule &r : set) {
        ruleViolations.push_back(&reg.counter(
            std::string("invariants.violations.") +
                invariantMetricName(r.metric),
            "violations of " + r.text));
    }
    for (int d = 0; d < numDomains; ++d)
        relockPrevEnd[d] = 0;
}

void
InvariantEngine::violate(std::size_t rule_idx, Domain d, Tick tick,
                         double observed, double bound)
{
    const InvariantRule &r = set[rule_idx];
    nViolations->inc();
    ruleViolations[rule_idx]->inc();
    if (breaches.size() < maxRecords)
        breaches.push_back({r.text, d, tick, observed, bound});
    if (exp && exp->enabled()) {
        std::string args = json::member("rule", json::quote(r.text)) +
            ", " + json::member("observed", json::number(observed)) +
            ", " + json::member("bound", json::number(bound));
        exp->instant("invariant violation: " +
                         std::string(invariantMetricName(r.metric)),
                     "invariant", domainIndex(d), tick, std::move(args));
    }
}

void
InvariantEngine::checkVoltage(Domain d, Tick when, Hertz f, Volt v)
{
    double required = table.voltageFor(f);
    for (std::size_t i = 0; i < set.size(); ++i) {
        if (set[i].metric != InvariantMetric::VoltageLeadsFreq)
            continue;
        nChecks->inc();
        if (v + voltEps < required)
            violate(i, d, when, v, required);
    }
}

void
InvariantEngine::runStart(const std::array<Hertz, numDomains> &freq,
                          const std::array<Volt, numDomains> &volt)
{
    lastFreq = freq;
    for (int d = 0; d < numDomains; ++d)
        checkVoltage(static_cast<Domain>(d), 0, freq[d], volt[d]);
}

void
InvariantEngine::frequencyChange(Domain d, Tick when, Hertz f, Volt v)
{
    int di = domainIndex(d);
    lastFreq[di] = f;
    checkVoltage(d, when, f, v);
    for (std::size_t i = 0; i < set.size(); ++i) {
        if (set[i].metric != InvariantMetric::FreqInTable)
            continue;
        nChecks->inc();
        double slack = table.maxFrequency() * 1e-9;
        if (f < table.minFrequency() - slack ||
            f > table.maxFrequency() + slack) {
            violate(i, d, when, f, table.maxFrequency());
        }
    }
}

void
InvariantEngine::relockWindow(Domain d, Tick start, Tick end)
{
    int di = domainIndex(d);
    for (std::size_t i = 0; i < set.size(); ++i) {
        if (set[i].metric != InvariantMetric::RelockOverlap)
            continue;
        nChecks->inc();
        if (start < relockPrevEnd[di]) {
            violate(i, d, start,
                    static_cast<double>(relockPrevEnd[di] - start), 0.0);
        }
    }
    relockAccum[di] += end - start;
    relockPrevEnd[di] = std::max(relockPrevEnd[di], end);
    lastRelockEnd = std::max(lastRelockEnd, end);
}

void
InvariantEngine::sample(const TimeSample &s)
{
    for (std::size_t i = 0; i < set.size(); ++i) {
        switch (set[i].metric) {
          case InvariantMetric::QueueFill:
            for (int d = 0; d < numDomains; ++d) {
                nChecks->inc();
                if (s.occupancy[d] > set[i].bound + fillEps) {
                    violate(i, static_cast<Domain>(d), s.when,
                            s.occupancy[d], set[i].bound);
                }
            }
            break;
          case InvariantMetric::EnergyDecreasing:
            for (int d = 0; d < numDomains; ++d) {
                nChecks->inc();
                if (s.energy[d] < lastEnergy[d] - energyEps) {
                    violate(i, static_cast<Domain>(d), s.when,
                            s.energy[d], lastEnergy[d]);
                }
            }
            break;
          case InvariantMetric::VoltageLeadsFreq:
            // Mid-ramp coverage between frequency-change events.
            for (int d = 0; d < numDomains; ++d) {
                nChecks->inc();
                double required = table.voltageFor(s.frequency[d]);
                if (s.voltage[d] + voltEps < required) {
                    violate(i, static_cast<Domain>(d), s.when,
                            s.voltage[d], required);
                }
            }
            break;
          default:
            break;
        }
    }
    for (int d = 0; d < numDomains; ++d)
        lastEnergy[d] = s.energy[d];
}

void
InvariantEngine::runEnd(Tick execTime)
{
    // Dilation is evaluated once, over the whole run: early in a run
    // a single re-lock window dominates the elapsed time and a
    // cumulative online check would trip spuriously. A run can end
    // (last commit) before its last re-lock window closes, so the
    // elapsed time covers both.
    Tick elapsed = std::max(execTime, lastRelockEnd);
    for (std::size_t i = 0; i < set.size(); ++i) {
        if (set[i].metric != InvariantMetric::Dilation)
            continue;
        for (int d = 0; d < numDomains; ++d) {
            if (!relockAccum[d])
                continue;
            nChecks->inc();
            double frac = elapsed
                ? static_cast<double>(relockAccum[d]) /
                      static_cast<double>(elapsed)
                : 0.0;
            if (frac > set[i].bound) {
                violate(i, static_cast<Domain>(d), execTime, frac,
                        set[i].bound);
            }
        }
    }
}

} // namespace obs
} // namespace mcd
