#include "sampling.hh"

#include <cmath>

#include "common/log.hh"
#include "common/spec.hh"
#include "config/runspec.hh"
#include "power/power_model.hh"

namespace mcd {

SamplingParams
SamplingParams::fromSpec(const std::string &text)
{
    SamplingParams p;
    bool sawDetailed = false;
    bool sawFf = false;
    for (const std::string &item : spec::split(text, ',')) {
        auto [key, val] = spec::keyValue("MCD_SAMPLING", item);
        const std::string what = "MCD_SAMPLING: bad value for " + key;
        if (key == "tol") {
            p.tolerance = spec::parseDouble(what, val);
            continue;
        }
        std::uint64_t n = spec::parseU64(what, val);
        if (key == "detailed") {
            p.detailedInsts = n;
            sawDetailed = true;
        } else if (key == "ff") {
            p.ffInsts = n;
            sawFf = true;
        } else if (key == "warmup") {
            p.warmupInsts = n;
        } else {
            fatal("MCD_SAMPLING: unknown key '" + key +
                  "' (expected detailed/ff/warmup/tol)");
        }
    }
    if (!sawDetailed || !sawFf)
        fatal("MCD_SAMPLING: spec must set at least detailed= and ff= "
              "(got '" + text + "')");
    p.validate();
    return p;
}

std::string
SamplingParams::spec() const
{
    return "detailed=" + std::to_string(detailedInsts) +
        ",ff=" + std::to_string(ffInsts) +
        ",warmup=" + std::to_string(warmupInsts) +
        ",tol=" + config::canonicalDouble(tolerance);
}

void
SamplingParams::validate() const
{
    if (detailedInsts == 0)
        fatal("SamplingParams: detailedInsts must be > 0");
    if (ffInsts == 0)
        fatal("SamplingParams: ffInsts must be > 0 (omit sampling for "
              "a full-detail run)");
    if (warmupInsts >= detailedInsts)
        fatal("SamplingParams: warmupInsts must be < detailedInsts "
              "(the window needs a measured tail)");
    if (!std::isfinite(tolerance) || tolerance <= 0.0 || tolerance > 1.0)
        fatal("SamplingParams: tolerance must lie in (0, 1]");
}

SamplingPolicy::SamplingPolicy(const SamplingParams &params,
                               const PowerModel *power_)
    : p(params), power(power_), st(State::Warmup)
{
    p.validate();
}

std::array<double, numDomains>
SamplingPolicy::domainEnergies() const
{
    std::array<double, numDomains> e{};
    if (power) {
        for (int d = 0; d < numDomains; ++d)
            e[d] = power->domainEnergy(static_cast<Domain>(d));
    }
    return e;
}

bool
SamplingPolicy::onFrontEndTick(std::uint64_t committed, Tick now,
                               bool windowEmpty, bool haltSeen)
{
    switch (st) {
      case State::Warmup:
        // With warmupInsts == 0 this latches the measurement base at
        // the window's first front-end edge.
        if (committed - windowStartCommits < p.warmupInsts)
            return false;
        measureStartCommits = committed;
        measureStartTime = now;
        measureStartEnergy = domainEnergies();
        st = State::Measure;
        [[fallthrough]];
      case State::Measure:
        if (committed - windowStartCommits < p.detailedInsts)
            return false;
        {
            SampleWindow w;
            w.insts = committed - measureStartCommits;
            w.timePs = now - measureStartTime;
            std::array<double, numDomains> e = domainEnergies();
            for (int d = 0; d < numDomains; ++d)
                w.energy[d] = e[d] - measureStartEnergy[d];
            windows.push_back(w);
        }
        st = State::Drain;
        [[fallthrough]];
      case State::Drain:
        if (!windowEmpty)
            return false;
        if (haltSeen) {
            // HALT is already in flight: no oracle left to fast-forward.
            st = State::Done;
            return false;
        }
        return true;    // drained: the caller fast-forwards now
      case State::Done:
        return false;
    }
    return false;
}

std::uint64_t
SamplingPolicy::ffBudget(std::uint64_t commit_cap,
                         std::uint64_t committed) const
{
    std::uint64_t n = p.ffInsts;
    if (commit_cap) {
        std::uint64_t total = committed + ffTotal;
        if (total >= commit_cap)
            return 0;
        n = std::min(n, commit_cap - total);
    }
    return n;
}

void
SamplingPolicy::onFastForwardDone(std::uint64_t executed, bool halted,
                                  std::uint64_t committed)
{
    ffSegments.push_back(executed);
    ffTotal += executed;
    if (halted) {
        ffHalted = true;
        st = State::Done;
        return;
    }
    // Open the next detailed window at the current commit count (the
    // finished window may have overshot detailedInsts by up to the
    // retire width; measuring from the actual count keeps windows
    // honest).
    st = State::Warmup;
    windowStartCommits = committed;
}

SamplingSummary
SamplingPolicy::summary(std::uint64_t committed) const
{
    SamplingSummary s;
    s.windows = windows.size();
    s.detailedCommitted = committed;
    s.ffExecuted = ffTotal;
    s.haltDuringFf = ffHalted;

    if (windows.empty())
        return s;

    // Per-window rates, for extrapolation fallback and confidence.
    double sumT = 0.0;
    double sumT2 = 0.0;
    double sumE = 0.0;
    double sumE2 = 0.0;
    for (const SampleWindow &w : windows) {
        double insts = static_cast<double>(w.insts ? w.insts : 1);
        double tpi = static_cast<double>(w.timePs) / insts;
        double total = 0.0;
        for (int d = 0; d < numDomains; ++d)
            total += w.energy[d];
        double epi = total / insts;
        sumT += tpi;
        sumT2 += tpi * tpi;
        sumE += epi;
        sumE2 += epi * epi;
    }
    double n = static_cast<double>(windows.size());
    double meanT = sumT / n;
    double meanE = sumE / n;
    if (windows.size() > 1) {
        double varT = std::max(0.0, sumT2 / n - meanT * meanT);
        double varE = std::max(0.0, sumE2 / n - meanE * meanE);
        if (meanT > 0.0)
            s.timePerInstCv = std::sqrt(varT) / meanT;
        if (meanE > 0.0)
            s.energyPerInstCv = std::sqrt(varE) / meanE;
    }

    // Each fast-forward segment lies between two detailed windows
    // (segment i follows windows[i] by construction of the state
    // machine and precedes windows[i + 1] when one completed), so its
    // cost extrapolates from the mean of the two adjacent windows'
    // per-instruction rates — a trapezoid rule that tracks phase
    // ramps far better than the preceding window alone. The final
    // segment, and any segment past the last completed window, falls
    // back to the last window's rate.
    double ffTime = 0.0;
    for (std::size_t i = 0; i < ffSegments.size(); ++i) {
        const SampleWindow &a = windows[std::min(i, windows.size() - 1)];
        const SampleWindow &b =
            windows[std::min(i + 1, windows.size() - 1)];
        double len = static_cast<double>(ffSegments[i]);
        double aInsts = static_cast<double>(a.insts ? a.insts : 1);
        double bInsts = static_cast<double>(b.insts ? b.insts : 1);
        ffTime += len * 0.5 *
            (static_cast<double>(a.timePs) / aInsts +
             static_cast<double>(b.timePs) / bInsts);
        for (int d = 0; d < numDomains; ++d) {
            double de = len * 0.5 *
                (a.energy[d] / aInsts + b.energy[d] / bInsts);
            s.estFfEnergyDomain[d] += de;
            s.estFfEnergy += de;
        }
    }
    s.estFfTimePs = static_cast<Tick>(ffTime);
    return s;
}

} // namespace mcd
