#include "shrink.hh"

#include <vector>

#include "common/spec.hh"

namespace mcd {
namespace fuzz {

namespace {

std::string
join(const std::vector<std::string> &items, char sep)
{
    std::string out;
    for (const std::string &i : items) {
        if (!out.empty())
            out += sep;
        out += i;
    }
    return out;
}

/** A candidate is worth running only if it still validates. */
bool
candidateValid(const Scenario &s)
{
    try {
        return s.toConfig().validateAll().empty();
    } catch (const std::exception &) {
        return false;       // a spec failed to parse at all
    }
}

/** Structural size: what the shrinker is monotonically decreasing. */
std::uint64_t
sizeOf(const Scenario &s)
{
    std::uint64_t n = 0;
    for (const PhaseParams &p : s.workload.phases) {
        n += static_cast<std::uint64_t>(p.iters);
        n += static_cast<std::uint64_t>(p.chainDepth);
        n += static_cast<std::uint64_t>(p.footprintWords);
    }
    n += 1000 * spec::split(s.legsSpec, '|').size();
    n += 1000 * spec::split(s.faultSpec, ';').size();
    n += 1000 * spec::split(s.plantedSpec, ';').size();
    for (const auto &[name, text] : s.options)
        n += name.size() + text.size();
    return n;
}

/**
 * All one-step-smaller variants of @p s, in a deterministic order.
 * Invalid variants (e.g. a leg set whose global-search reference was
 * dropped) are filtered by the caller before spending an oracle run.
 */
std::vector<Scenario>
candidatesOf(const Scenario &s)
{
    std::vector<Scenario> out;

    // Drop one leg.
    std::vector<std::string> legs = spec::split(s.legsSpec, '|');
    if (legs.size() > 1) {
        for (std::size_t i = 0; i < legs.size(); ++i) {
            std::vector<std::string> fewer = legs;
            fewer.erase(fewer.begin() +
                        static_cast<std::ptrdiff_t>(i));
            Scenario c = s;
            c.legsSpec = join(fewer, '|');
            out.push_back(std::move(c));
        }
    }

    // Drop one declared or planted fault entry.
    for (int which = 0; which < 2; ++which) {
        const std::string &faults = which ? s.plantedSpec : s.faultSpec;
        std::vector<std::string> items = spec::split(faults, ';');
        for (std::size_t i = 0; i < items.size(); ++i) {
            std::vector<std::string> fewer = items;
            fewer.erase(fewer.begin() +
                        static_cast<std::ptrdiff_t>(i));
            Scenario c = s;
            (which ? c.plantedSpec : c.faultSpec) = join(fewer, ';');
            out.push_back(std::move(c));
        }
    }

    // Drop one program phase.
    if (s.workload.phases.size() > 1) {
        for (std::size_t i = 0; i < s.workload.phases.size(); ++i) {
            Scenario c = s;
            c.workload.phases.erase(
                c.workload.phases.begin() +
                static_cast<std::ptrdiff_t>(i));
            out.push_back(std::move(c));
        }
    }

    // Halve numeric phase dimensions.
    for (std::size_t i = 0; i < s.workload.phases.size(); ++i) {
        const PhaseParams &p = s.workload.phases[i];
        if (p.iters > 1) {
            Scenario c = s;
            c.workload.phases[i].iters = p.iters / 2;
            out.push_back(std::move(c));
        }
        if (p.chainDepth > 1) {
            Scenario c = s;
            c.workload.phases[i].chainDepth = p.chainDepth / 2;
            out.push_back(std::move(c));
        }
        if (p.footprintWords > 16) {
            Scenario c = s;
            c.workload.phases[i].footprintWords = p.footprintWords / 2;
            out.push_back(std::move(c));
        }
    }

    // Strip sampling (one less moving part in the repro).
    if (s.options.count("sampling")) {
        Scenario c = s;
        c.options.erase("sampling");
        out.push_back(std::move(c));
    }
    return out;
}

} // namespace

ShrinkResult
shrinkScenario(const Scenario &failing, const Outcome &baseline,
               int maxRuns, ShrinkOracle oracle)
{
    if (!oracle)
        oracle = [](const Scenario &s) { return runScenario(s); };

    ShrinkResult res;
    res.minimized = failing;
    res.outcome = baseline;

    bool progressed = true;
    while (progressed && res.runs < maxRuns) {
        progressed = false;
        for (Scenario &cand : candidatesOf(res.minimized)) {
            if (res.runs >= maxRuns)
                break;
            if (sizeOf(cand) >= sizeOf(res.minimized))
                continue;   // paranoia: only ever move downhill
            if (!candidateValid(cand))
                continue;
            ++res.runs;
            Outcome o = oracle(cand);
            if (o.cls == baseline.cls &&
                o.signature == baseline.signature) {
                res.minimized = std::move(cand);
                res.outcome = std::move(o);
                ++res.reductions;
                progressed = true;
                break;      // restart passes from the smaller base
            }
        }
    }
    return res;
}

} // namespace fuzz
} // namespace mcd
