/**
 * @file
 * Per-structure access energies for the Wattch-style power model.
 *
 * Values are relative per-access energies (arbitrary "pJ" units) at
 * the nominal operating point (1 GHz, 1.2 V), calibrated so the
 * resulting chip-level breakdown matches the paper's statements: the
 * front end accounts for roughly 20% of total chip energy, the
 * integer domain is the largest consumer in integer codes under
 * aggressive clock gating, and clock distribution is a substantial
 * per-cycle cost in every domain. Absolute watts are not meaningful
 * (we report only relative energy/EDP, as the paper's figures do).
 */

#ifndef MCD_POWER_ENERGY_PARAMS_HH
#define MCD_POWER_ENERGY_PARAMS_HH

#include "common/types.hh"

namespace mcd {

/** On-chip structures tracked by the power model. */
enum class Unit : int {
    // Front-end domain.
    Icache = 0,
    Bpred,
    Rename,
    Rob,
    FetchQueue,
    // Integer domain.
    IntIqWrite,
    IntIqIssue,
    IntRegRead,
    IntRegWrite,
    IntAlu,
    IntMulDiv,
    // Floating-point domain.
    FpIqWrite,
    FpIqIssue,
    FpRegRead,
    FpRegWrite,
    FpAlu,
    FpMulDiv,
    // Load/store domain.
    Lsq,
    Dcache,
    L2,
    NumUnits,
};

inline constexpr int numUnits = static_cast<int>(Unit::NumUnits);

/** Clock domain of each unit, indexed by Unit. */
inline constexpr Domain unitDomains[numUnits] = {
    Domain::FrontEnd, Domain::FrontEnd, Domain::FrontEnd,
    Domain::FrontEnd, Domain::FrontEnd,
    Domain::Integer, Domain::Integer, Domain::Integer,
    Domain::Integer, Domain::Integer, Domain::Integer,
    Domain::FloatingPoint, Domain::FloatingPoint, Domain::FloatingPoint,
    Domain::FloatingPoint, Domain::FloatingPoint, Domain::FloatingPoint,
    Domain::LoadStore, Domain::LoadStore, Domain::LoadStore,
};

/** Clock domain that powers a given unit. */
inline Domain
unitDomain(Unit u)
{
    return unitDomains[static_cast<int>(u)];
}

/** Display name for a unit. */
const char *unitName(Unit u);

/** The energy table. */
struct EnergyParams
{
    /** Per-access energies, indexed by Unit. */
    double accessEnergy[numUnits] = {
        // Front end (calibrated to ~20% of chip energy, paper 3.2).
        170.0,  // Icache read (per fetch-group access)
        55.0,   // Bpred lookup + update + BTB
        65.0,   // Rename (map read/write + free list)
        110.0,  // ROB (dispatch write / commit read)
        25.0,   // Fetch queue entry
        // Integer.
        90.0,   // IntIqWrite
        150.0,  // IntIqIssue (wakeup + select)
        70.0,   // IntRegRead (per operand)
        95.0,   // IntRegWrite
        270.0,  // IntAlu op
        650.0,  // IntMulDiv op
        // Floating point.
        90.0,   // FpIqWrite
        150.0,  // FpIqIssue
        80.0,   // FpRegRead
        105.0,  // FpRegWrite
        460.0,  // FpAlu op
        900.0,  // FpMulDiv op
        // Load/store.
        180.0,  // LSQ insert/search
        520.0,  // L1D access
        1600.0, // L2 access
    };

    /** Clock-tree energy per cycle for an *active* domain cycle. */
    double clockTreeEnergy[numDomains] = {170.0, 390.0, 310.0, 390.0};

    /**
     * Fraction of clock-tree energy still burned on an idle (fully
     * clock-gated) cycle: gating is aggressive but imperfect (Wattch
     * "cc3"-style residual).
     */
    double gatedClockFraction = 0.45;

    /** Residual non-clock energy per idle domain cycle. */
    double idleResidual[numDomains] = {25.0, 85.0, 80.0, 85.0};

    /** Nominal (maximum) supply voltage for the V^2 scaling. */
    Volt nominalVoltage = 1.2;
};

} // namespace mcd

#endif // MCD_POWER_ENERGY_PARAMS_HH
