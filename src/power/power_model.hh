/**
 * @file
 * Activity-driven energy accounting in the Wattch tradition.
 *
 * Every structure access is charged its table energy scaled by
 * (V/Vnom)^2 at the *current* voltage of the owning clock domain, so
 * per-domain voltage scaling reduces energy quadratically exactly as
 * in the paper's model. Idle domain cycles pay only the gated clock
 * residual (aggressive conditional clock gating, paper Section 3.1).
 */

#ifndef MCD_POWER_POWER_MODEL_HH
#define MCD_POWER_POWER_MODEL_HH

#include <array>
#include <cstdint>
#include <string>

#include "clock/clock_domain.hh"
#include "power/energy_params.hh"

namespace mcd {

/**
 * Accumulates energy per domain and per unit.
 */
class PowerModel
{
  public:
    PowerModel(const EnergyParams &params,
               std::array<const ClockDomain *, numDomains> domain_clocks);

    /** Charge @p count accesses to a unit at its domain's voltage. */
    void
    access(Unit u, int count = 1)
    {
        int ui = static_cast<int>(u);
        Domain d = unitDomain(u);
        double e = cfg.accessEnergy[ui] * count * vsq(d);
        unitEnergy[ui] += e;
        domEnergy[domainIndex(d)] += e;
        activeThisCycle[domainIndex(d)] = true;
        ++unitCount[ui];
    }

    /**
     * Account one clock cycle of domain @p d. Call at every domain
     * edge after the domain's work for that cycle is done; the model
     * uses the access() calls since the previous edge to decide
     * whether the cycle was active or gated.
     *
     * @param stopped true while the domain's PLL is re-locking (no
     *        clock at all: nothing is charged)
     */
    void domainCycle(Domain d, bool stopped = false);

    double domainEnergy(Domain d) const
    { return domEnergy[domainIndex(d)]; }
    double unitEnergyOf(Unit u) const
    { return unitEnergy[static_cast<int>(u)]; }
    std::uint64_t unitAccesses(Unit u) const
    { return unitCount[static_cast<int>(u)]; }
    double totalEnergy() const;

    /** Render a per-domain / per-unit breakdown table. */
    std::string breakdown() const;

    void reset();

    const EnergyParams &params() const { return cfg; }

  private:
    /**
     * (V/Vnom)^2 of domain @p d. Voltage changes are rare next to
     * accesses, so the square is cached per domain and recomputed,
     * with the same expression, only when the clock's voltage differs
     * from the one it was computed at.
     */
    double
    vsq(Domain d)
    {
        int di = domainIndex(d);
        Volt v = clocks[di]->voltage();
        if (v != vsqAt[di]) {
            double rel = v / cfg.nominalVoltage;
            vsqCache[di] = rel * rel;
            vsqAt[di] = v;
        }
        return vsqCache[di];
    }

    EnergyParams cfg;
    std::array<const ClockDomain *, numDomains> clocks;
    std::array<double, numUnits> unitEnergy{};
    std::array<std::uint64_t, numUnits> unitCount{};
    std::array<double, numDomains> domEnergy{};
    std::array<double, numDomains> clockEnergy{};
    std::array<bool, numDomains> activeThisCycle{};
    std::array<Volt, numDomains> vsqAt{};   //!< voltage vsqCache is for
    std::array<double, numDomains> vsqCache{};
};

} // namespace mcd

#endif // MCD_POWER_POWER_MODEL_HH
