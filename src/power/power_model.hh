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
#include <string>

#include "clock/clock_domain.hh"
#include "power/energy_params.hh"

namespace mcd {

/**
 * Accumulates energy per domain and per unit. It watches its clocks'
 * voltages, so each domain's (V/Vnom)^2 is computed when the voltage
 * changes, not read back on every charge.
 */
class PowerModel : public VoltageWatcher
{
  public:
    PowerModel(const EnergyParams &params,
               std::array<ClockDomain *, numDomains> domain_clocks);
    ~PowerModel();

    PowerModel(const PowerModel &) = delete;
    PowerModel &operator=(const PowerModel &) = delete;

    /** Charge @p count accesses to a unit at its domain's voltage. */
    void
    access(Unit u, int count = 1)
    {
        int ui = static_cast<int>(u);
        Domain d = unitDomain(u);
        double e = cfg.accessEnergy[ui] * count * vsq[domainIndex(d)];
        unitEnergy[ui] += e;
        domEnergy[domainIndex(d)] += e;
        activeThisCycle[domainIndex(d)] = true;
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
    double totalEnergy() const;

    /** Render a per-domain / per-unit breakdown table. */
    std::string breakdown() const;

    const EnergyParams &params() const { return cfg; }

    /** The (V/Vnom)^2 that domain @p d's charges are scaled by. */
    double voltageSquared(Domain d) const { return vsq[domainIndex(d)]; }

    /** Recompute (V/Vnom)^2 of every domain @p clock drives. */
    void voltageChanged(const ClockDomain &clock) override;

  private:
    EnergyParams cfg;
    std::array<ClockDomain *, numDomains> clocks;
    std::array<double, numUnits> unitEnergy{};
    std::array<double, numDomains> domEnergy{};
    std::array<double, numDomains> clockEnergy{};
    std::array<bool, numDomains> activeThisCycle{};
    std::array<double, numDomains> vsq{};   //!< (V/Vnom)^2 per domain
};

} // namespace mcd

#endif // MCD_POWER_POWER_MODEL_HH
