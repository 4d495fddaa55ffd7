#include "power_model.hh"

#include "common/stats.hh"

namespace mcd {

const char *
unitName(Unit u)
{
    switch (u) {
      case Unit::Icache: return "L1 I-cache";
      case Unit::Bpred: return "branch predictor";
      case Unit::Rename: return "rename";
      case Unit::Rob: return "reorder buffer";
      case Unit::FetchQueue: return "fetch queue";
      case Unit::IntIqWrite: return "int IQ write";
      case Unit::IntIqIssue: return "int IQ issue";
      case Unit::IntRegRead: return "int regfile read";
      case Unit::IntRegWrite: return "int regfile write";
      case Unit::IntAlu: return "int ALU";
      case Unit::IntMulDiv: return "int mul/div";
      case Unit::FpIqWrite: return "FP IQ write";
      case Unit::FpIqIssue: return "FP IQ issue";
      case Unit::FpRegRead: return "FP regfile read";
      case Unit::FpRegWrite: return "FP regfile write";
      case Unit::FpAlu: return "FP ALU";
      case Unit::FpMulDiv: return "FP mul/div/sqrt";
      case Unit::Lsq: return "load/store queue";
      case Unit::Dcache: return "L1 D-cache";
      case Unit::L2: return "L2 cache";
      default: return "?";
    }
}

PowerModel::PowerModel(
    const EnergyParams &params,
    std::array<ClockDomain *, numDomains> domain_clocks)
    : cfg(params), clocks(domain_clocks)
{
    for (ClockDomain *c : clocks) {
        c->watchVoltage(this);
        voltageChanged(*c);
    }
}

PowerModel::~PowerModel()
{
    for (ClockDomain *c : clocks) {
        if (c->voltageWatcher() == this)
            c->watchVoltage(nullptr);
    }
}

void
PowerModel::voltageChanged(const ClockDomain &clock)
{
    for (int di = 0; di < numDomains; ++di) {
        if (clocks[di] == &clock) {
            double rel = clock.voltage() / cfg.nominalVoltage;
            vsq[di] = rel * rel;
        }
    }
}

void
PowerModel::domainCycle(Domain d, bool stopped)
{
    int di = domainIndex(d);
    if (stopped) {
        // PLL re-locking: no clock, no dynamic energy.
        activeThisCycle[di] = false;
        return;
    }
    double e = cfg.clockTreeEnergy[di] * vsq[di];
    if (!activeThisCycle[di])
        e = e * cfg.gatedClockFraction + cfg.idleResidual[di] * vsq[di];
    clockEnergy[di] += e;
    domEnergy[di] += e;
    activeThisCycle[di] = false;
}

double
PowerModel::totalEnergy() const
{
    double t = 0.0;
    for (double e : domEnergy)
        t += e;
    return t;
}

std::string
PowerModel::breakdown() const
{
    TextTable tbl;
    tbl.header({"unit", "domain", "energy", "share"});
    double total = totalEnergy();
    for (int i = 0; i < numUnits; ++i) {
        Unit u = static_cast<Unit>(i);
        tbl.row({unitName(u), domainShortName(unitDomain(u)),
                 formatFixed(unitEnergy[i], 0),
                 formatPercent(total > 0 ? unitEnergy[i] / total : 0.0)});
    }
    for (int d = 0; d < numDomains; ++d) {
        tbl.row({"clock tree + idle",
                 domainShortName(static_cast<Domain>(d)),
                 formatFixed(clockEnergy[d], 0),
                 formatPercent(total > 0 ? clockEnergy[d] / total : 0.0)});
    }
    tbl.separator();
    for (int d = 0; d < numDomains; ++d) {
        tbl.row({"domain total",
                 domainShortName(static_cast<Domain>(d)),
                 formatFixed(domEnergy[d], 0),
                 formatPercent(total > 0 ? domEnergy[d] / total : 0.0)});
    }
    return tbl.render();
}

} // namespace mcd
