#include "dvfs.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/log.hh"
#include "obs/telemetry.hh"

namespace mcd {

const char *
dvfsKindName(DvfsKind kind)
{
    switch (kind) {
      case DvfsKind::None: return "none";
      case DvfsKind::Transmeta: return "Transmeta";
      case DvfsKind::XScale: return "XScale";
    }
    return "?";
}

std::optional<DvfsKind>
dvfsKindFromName(std::string_view name)
{
    auto equals = [](std::string_view a, std::string_view b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (std::tolower(static_cast<unsigned char>(a[i])) !=
                std::tolower(static_cast<unsigned char>(b[i]))) {
                return false;
            }
        }
        return true;
    };
    for (DvfsKind k : {DvfsKind::None, DvfsKind::Transmeta,
                       DvfsKind::XScale}) {
        if (equals(name, dvfsKindName(k)))
            return k;
    }
    return std::nullopt;
}

std::string
dvfsKindNames()
{
    std::string out;
    for (DvfsKind k : {DvfsKind::None, DvfsKind::Transmeta,
                       DvfsKind::XScale}) {
        if (!out.empty())
            out += ", ";
        out += dvfsKindName(k);
    }
    return out;
}

DvfsParams
DvfsParams::transmeta(double time_scale)
{
    DvfsParams p;
    p.kind = DvfsKind::Transmeta;
    p.stepsFullRange = 32;
    p.stepTime = static_cast<Tick>(fromMicroseconds(20.0) * time_scale);
    p.freqTracksVoltage = false;
    p.pllRelock = true;
    p.relockMin = static_cast<Tick>(fromMicroseconds(10.0) * time_scale);
    p.relockMax = static_cast<Tick>(fromMicroseconds(20.0) * time_scale);
    p.relockMean = static_cast<Tick>(fromMicroseconds(15.0) * time_scale);
    // ~99.7% of samples inside the 10-20 us range.
    p.relockSigma = fromMicroseconds(5.0 / 3.0) * time_scale;
    return p;
}

DvfsParams
DvfsParams::xscale(double time_scale)
{
    DvfsParams p;
    p.kind = DvfsKind::XScale;
    p.stepsFullRange = 320;
    p.stepTime = static_cast<Tick>(fromMicroseconds(0.1718) * time_scale);
    p.freqTracksVoltage = true;
    p.pllRelock = false;
    return p;
}

DvfsParams
DvfsParams::none()
{
    DvfsParams p;
    p.kind = DvfsKind::None;
    // Fine-grained levels so instant voltage changes land on (nearly)
    // the exact table voltage; stepTime is irrelevant for this kind.
    p.stepsFullRange = 320;
    p.stepTime = 0;
    return p;
}

DvfsParams
DvfsParams::forKind(DvfsKind kind, double time_scale)
{
    switch (kind) {
      case DvfsKind::Transmeta: return transmeta(time_scale);
      case DvfsKind::XScale: return xscale(time_scale);
      case DvfsKind::None: return none();
    }
    return none();
}

DomainDvfs::DomainDvfs(const DvfsParams &p, const DvfsTable &t,
                       ClockDomain &domain, std::uint64_t seed)
    : params(p), table(t), dom(domain), rng(seed),
      targetFreq(domain.frequency())
{
    level = levelForVoltage(table.voltageFor(dom.frequency()));
    targetLevel = level;
    dom.setVoltage(voltageForLevel(level));
}

int
DomainDvfs::levelForVoltage(Volt v) const
{
    double span = table.maxVoltage() - table.minVoltage();
    double frac = (v - table.minVoltage()) / span;
    int lvl = static_cast<int>(
        std::ceil(frac * params.stepsFullRange - 1e-9));
    return std::clamp(lvl, 0, params.stepsFullRange);
}

Volt
DomainDvfs::voltageForLevel(int lvl) const
{
    double span = table.maxVoltage() - table.minVoltage();
    return table.minVoltage() +
        span * lvl / static_cast<double>(params.stepsFullRange);
}

Tick
DomainDvfs::sampleRelock()
{
    double t = rng.normal(static_cast<double>(params.relockMean),
                          params.relockSigma);
    double lo = static_cast<double>(params.relockMin);
    double hi = static_cast<double>(params.relockMax);
    return static_cast<Tick>(std::clamp(t, lo, hi));
}

void
DomainDvfs::applyFrequency(Tick now, Hertz f)
{
    if (f == dom.frequency())
        return;
    dom.setFrequency(f);
    if (telem)
        telem->onFrequencyChange(dom.id(), now, f, dom.voltage());
}

void
DomainDvfs::applyVoltageLevel(int lvl)
{
    level = lvl;
    dom.setVoltage(voltageForLevel(lvl));
}

void
DomainDvfs::requestFrequency(Tick now, Hertz target)
{
    target = std::clamp(target, table.minFrequency(), table.maxFrequency());
    int tlevel = levelForVoltage(table.voltageFor(target));
    if (target == targetFreq && tlevel == targetLevel)
        return;
    ++reconfigs;
    targetFreq = target;
    targetLevel = tlevel;

    if (params.kind == DvfsKind::None) {
        applyVoltageLevel(targetLevel);
        applyFrequency(now, targetFreq);
        active = false;
        return;
    }

    // Injected voltage/frequency mis-order: the rise is applied right
    // now, while the rail is still at the old (lower) voltage; the
    // normal update() path then completes the voltage ramp behind it.
    if (misorder && target > dom.frequency())
        applyFrequency(now, target);

    active = true;
    ramping = false;
    update(now);
}

void
DomainDvfs::update(Tick now)
{
    if (relocking) {
        if (now < relockEnd)
            return;
        relocking = false;
        applyFrequency(relockEnd, relockFreq);
    }
    if (!active)
        return;

    Hertz f = dom.frequency();

    // Phase 1: frequency drops happen before the voltage moves.
    if (f > targetFreq) {
        if (params.pllRelock) {
            relocking = true;
            relockEnd = now + sampleRelock();
            relockFreq = targetFreq;
            if (telem)
                telem->onRelockWindow(dom.id(), now, relockEnd);
            return;
        }
        applyFrequency(now, targetFreq);
        f = targetFreq;
    }

    // Phase 2: voltage ramp toward the target level.
    if (level != targetLevel) {
        if (!ramping) {
            ramping = true;
            nextStepTime = now + params.stepTime;
            return;
        }
        int dir = targetLevel > level ? 1 : -1;
        while (level != targetLevel && now >= nextStepTime) {
            applyVoltageLevel(level + dir);
            if (params.freqTracksVoltage && dir > 0) {
                Hertz track = std::min(
                    targetFreq, table.frequencyFor(dom.voltage()));
                if (track > dom.frequency())
                    applyFrequency(nextStepTime, track);
            }
            nextStepTime += params.stepTime;
        }
        if (level != targetLevel)
            return;
        ramping = false;
    }

    // Phase 3: frequency rise once the voltage is in place.
    if (dom.frequency() < targetFreq) {
        if (params.pllRelock) {
            relocking = true;
            relockEnd = now + sampleRelock();
            relockFreq = targetFreq;
            if (telem)
                telem->onRelockWindow(dom.id(), now, relockEnd);
            return;
        }
        applyFrequency(now, targetFreq);
    }

    active = false;
}

bool
DomainDvfs::executionBlocked(Tick now) const
{
    return relocking && now < relockEnd;
}

Tick
DomainDvfs::estimateTransitionTime(Hertz from, Hertz to) const
{
    if (params.kind == DvfsKind::None || from == to)
        return 0;
    int fromLvl = levelForVoltage(table.voltageFor(from));
    int toLvl = levelForVoltage(table.voltageFor(to));
    Tick t = static_cast<Tick>(std::abs(toLvl - fromLvl)) * params.stepTime;
    if (params.pllRelock)
        t += params.relockMean;
    return t;
}

} // namespace mcd
