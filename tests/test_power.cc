/**
 * @file
 * Tests for the activity-based power model.
 */

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "clock/clock_domain.hh"
#include "clock/dvfs.hh"
#include "clock/operating_points.hh"
#include "core/processor.hh"
#include "power/power_model.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

struct Rig
{
    ClockDomain fe{Domain::FrontEnd, 1e9, 1, 0.0, false};
    ClockDomain intc{Domain::Integer, 1e9, 2, 0.0, false};
    ClockDomain fp{Domain::FloatingPoint, 1e9, 3, 0.0, false};
    ClockDomain ls{Domain::LoadStore, 1e9, 4, 0.0, false};
    EnergyParams params;

    PowerModel
    make()
    {
        return PowerModel(params, {&fe, &intc, &fp, &ls});
    }
};

TEST(Power, UnitDomainsPartitionTheChip)
{
    int perDomain[numDomains] = {};
    for (int i = 0; i < numUnits; ++i)
        ++perDomain[domainIndex(unitDomain(static_cast<Unit>(i)))];
    EXPECT_EQ(perDomain[0], 5);     // front end
    EXPECT_EQ(perDomain[1], 6);     // integer
    EXPECT_EQ(perDomain[2], 6);     // FP
    EXPECT_EQ(perDomain[3], 3);     // load/store
}

TEST(Power, AccessChargesTableEnergyAtNominalVoltage)
{
    Rig rig;
    PowerModel pm = rig.make();
    pm.access(Unit::IntAlu);
    double e = rig.params.accessEnergy[static_cast<int>(Unit::IntAlu)];
    EXPECT_DOUBLE_EQ(pm.unitEnergyOf(Unit::IntAlu), e);
    EXPECT_DOUBLE_EQ(pm.domainEnergy(Domain::Integer), e);
}

TEST(Power, VoltageScalingIsExactlyQuadratic)
{
    Rig rig;
    rig.intc.setVoltage(0.6);   // half of nominal 1.2
    PowerModel pm = rig.make();
    pm.access(Unit::IntAlu, 4);
    double e = rig.params.accessEnergy[static_cast<int>(Unit::IntAlu)];
    EXPECT_DOUBLE_EQ(pm.domainEnergy(Domain::Integer), 4 * e * 0.25);
}

TEST(Power, VoltageChangeTakesEffectAtNextAccess)
{
    // The cached V^2 must follow the clock's voltage from the very
    // next access and cycle, bit for bit the uncached expression.
    Rig rig;
    PowerModel pm = rig.make();
    const double e = rig.params.accessEnergy[static_cast<int>(Unit::IntAlu)];
    const double tree = rig.params.clockTreeEnergy[1];
    auto vsq = [&](Volt v) {
        double rel = v / rig.params.nominalVoltage;
        return rel * rel;
    };

    pm.access(Unit::IntAlu);
    double want = e * 1 * vsq(1.2);
    EXPECT_EQ(pm.domainEnergy(Domain::Integer), want);

    rig.intc.setVoltage(0.9);
    pm.access(Unit::IntAlu, 2);
    want += e * 2 * vsq(0.9);
    EXPECT_EQ(pm.domainEnergy(Domain::Integer), want);
    pm.domainCycle(Domain::Integer);
    want += tree * vsq(0.9);
    EXPECT_EQ(pm.domainEnergy(Domain::Integer), want);

    rig.intc.setVoltage(1.2);
    pm.access(Unit::IntAlu);
    want += e * 1 * vsq(1.2);
    EXPECT_EQ(pm.domainEnergy(Domain::Integer), want);

    // Another domain's voltage never leaks into this one.
    rig.fp.setVoltage(0.65);
    pm.access(Unit::IntAlu);
    want += e * 1 * vsq(1.2);
    EXPECT_EQ(pm.domainEnergy(Domain::Integer), want);
}

TEST(Power, DomainEnergiesSumToTotal)
{
    Rig rig;
    PowerModel pm = rig.make();
    pm.access(Unit::Icache);
    pm.access(Unit::FpAlu, 3);
    pm.access(Unit::Dcache);
    pm.domainCycle(Domain::FrontEnd);
    pm.domainCycle(Domain::Integer);
    double sum = 0.0;
    for (int d = 0; d < numDomains; ++d)
        sum += pm.domainEnergy(static_cast<Domain>(d));
    EXPECT_DOUBLE_EQ(pm.totalEnergy(), sum);
}

TEST(Power, ActiveCycleCostsFullClockTree)
{
    Rig rig;
    PowerModel pm = rig.make();
    pm.access(Unit::IntAlu);
    double before = pm.totalEnergy();
    pm.domainCycle(Domain::Integer);
    double clock = rig.params.clockTreeEnergy[1];
    EXPECT_DOUBLE_EQ(pm.totalEnergy() - before, clock);
}

TEST(Power, IdleCycleIsGated)
{
    Rig rig;
    PowerModel pm = rig.make();
    pm.domainCycle(Domain::Integer);    // no accesses: gated
    double clock = rig.params.clockTreeEnergy[1];
    double expect = clock * rig.params.gatedClockFraction +
        rig.params.idleResidual[1];
    EXPECT_DOUBLE_EQ(pm.totalEnergy(), expect);
}

TEST(Power, StoppedCycleCostsNothing)
{
    Rig rig;
    PowerModel pm = rig.make();
    pm.domainCycle(Domain::Integer, true);  // PLL re-locking
    EXPECT_DOUBLE_EQ(pm.totalEnergy(), 0.0);
}

TEST(Power, ActivityFlagResetsEachCycle)
{
    Rig rig;
    PowerModel pm = rig.make();
    pm.access(Unit::IntAlu);
    pm.domainCycle(Domain::Integer);            // active
    double active = pm.totalEnergy();
    pm.domainCycle(Domain::Integer);            // now idle
    double idleDelta = pm.totalEnergy() - active;
    double gated = rig.params.clockTreeEnergy[1] *
        rig.params.gatedClockFraction + rig.params.idleResidual[1];
    EXPECT_DOUBLE_EQ(idleDelta, gated);
}

TEST(Power, AccessInOneDomainDoesNotWakeAnother)
{
    Rig rig;
    PowerModel pm = rig.make();
    pm.access(Unit::IntAlu);
    pm.domainCycle(Domain::FloatingPoint);  // FP idle
    double gated = rig.params.clockTreeEnergy[2] *
        rig.params.gatedClockFraction + rig.params.idleResidual[2];
    EXPECT_DOUBLE_EQ(pm.domainEnergy(Domain::FloatingPoint), gated);
}

TEST(Power, BreakdownMentionsEveryUnit)
{
    Rig rig;
    PowerModel pm = rig.make();
    pm.access(Unit::Icache);
    std::string s = pm.breakdown();
    for (int i = 0; i < numUnits; ++i)
        EXPECT_NE(s.find(unitName(static_cast<Unit>(i))),
                  std::string::npos);
    EXPECT_NE(s.find("domain total"), std::string::npos);
}

/** The V^2 of @p v the uncached way. */
double
relSquared(Volt v, const EnergyParams &p)
{
    double rel = v / p.nominalVoltage;
    return rel * rel;
}

TEST(Power, EverySetVoltageCallerRefreshesTheCachedVSquared)
{
    // The cached V^2 is recomputed only when a clock's voltage
    // changes. Every caller of ClockDomain::setVoltage in src/ is
    // listed here, and each is shown to leave the cache equal to the
    // uncached expression: a new caller fails the scan below until it
    // is added to this test.
    const std::map<std::string, int> callers{
        {"clock/clock_domain.hh", 1},   // the definition
        {"clock/dvfs.cc", 2},           // DomainDvfs ctor, applyVoltageLevel
        {"core/processor.cc", 1},       // initial voltages
    };
    std::map<std::string, int> found;
    const std::filesystem::path src =
        std::filesystem::path(MCD_SOURCE_DIR) / "src";
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(src)) {
        if (!e.is_regular_file())
            continue;
        std::ifstream in(e.path());
        std::stringstream text;
        text << in.rdbuf();
        const std::string body = text.str();
        int n = 0;
        for (std::size_t at = body.find("setVoltage(");
             at != std::string::npos; at = body.find("setVoltage(", at + 1))
            ++n;
        if (n)
            found[e.path().lexically_relative(src).generic_string()] = n;
    }
    EXPECT_EQ(found, callers);

    // DomainDvfs: its constructor snaps the voltage to a level, and
    // every ramp step applies the next level.
    Rig rig;
    PowerModel pm = rig.make();
    DvfsTable table;
    DomainDvfs dvfs(DvfsParams::forKind(DvfsKind::XScale), table, rig.intc,
                    7);
    EXPECT_EQ(pm.voltageSquared(Domain::Integer),
              relSquared(rig.intc.voltage(), rig.params));
    dvfs.requestFrequency(0, table.minFrequency());
    int steps = 0;
    for (Tick t = dvfs.nextEventTime(); t != neverTick && steps < 1000;
         t = dvfs.nextEventTime(), ++steps) {
        dvfs.update(t);
        ASSERT_EQ(pm.voltageSquared(Domain::Integer),
                  relSquared(rig.intc.voltage(), rig.params))
            << "step " << steps;
    }
    EXPECT_GT(steps, 1);
    EXPECT_LT(rig.intc.voltage(), rig.params.nominalVoltage);

    // McdProcessor: the initial voltages are set before its power
    // model exists, and its DVFS engines set them again after.
    for (ClockingStyle style : {ClockingStyle::Mcd, ClockingStyle::SingleClock}) {
        SimConfig sc;
        sc.clocking = style;
        sc.dvfs = DvfsKind::XScale;
        sc.maxInstructions = 2000;
        McdProcessor proc(sc, workloads::build("adpcm", 1));
        proc.run();
        for (int d = 0; d < numDomains; ++d) {
            const Domain dom = static_cast<Domain>(d);
            EXPECT_EQ(proc.powerModel().voltageSquared(dom),
                      relSquared(proc.clock(dom).voltage(),
                                 proc.powerModel().params()))
                << domainName(dom);
        }
    }
}

class PowerVoltageSweep : public ::testing::TestWithParam<double>
{};

TEST_P(PowerVoltageSweep, QuadraticAcrossRange)
{
    Rig rig;
    double v = GetParam();
    rig.ls.setVoltage(v);
    PowerModel pm = rig.make();
    pm.access(Unit::Dcache);
    double e = rig.params.accessEnergy[static_cast<int>(Unit::Dcache)];
    double ratio = v / rig.params.nominalVoltage;
    EXPECT_NEAR(pm.domainEnergy(Domain::LoadStore), e * ratio * ratio,
                1e-9);
}

INSTANTIATE_TEST_SUITE_P(Voltages, PowerVoltageSweep,
                         ::testing::Values(0.65, 0.75, 0.85, 0.95, 1.05,
                                           1.2));

} // namespace
} // namespace mcd
