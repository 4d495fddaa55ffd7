/**
 * @file
 * End-to-end tests for McdProcessor.
 */

#include <gtest/gtest.h>

#include "core/processor.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

TEST(Processor, RunResultSanity)
{
    Program p = workloads::build("epic", 1);
    SimConfig cfg;
    cfg.maxInstructions = 20000;
    McdProcessor proc(cfg, p);
    RunResult r = proc.run();
    EXPECT_GE(r.committed, 20000u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.execTime, 0u);
    EXPECT_GT(r.totalEnergy, 0.0);
    EXPECT_NEAR(r.energyDelay, r.totalEnergy * toSeconds(r.execTime),
                1e-12);
    double sum = 0.0;
    for (const DomainSummary &d : r.domains) {
        EXPECT_GT(d.energy, 0.0);
        sum += d.energy;
    }
    EXPECT_NEAR(sum, r.totalEnergy, r.totalEnergy * 1e-9);
    EXPECT_EQ(r.benchmark, "epic");
}

TEST(Processor, DomainFrequenciesHonored)
{
    Program p = workloads::build("epic", 1);
    SimConfig cfg;
    cfg.clocking = ClockingStyle::Mcd;
    cfg.domainFrequency = {1e9, 750e6, 500e6, 1e9};
    cfg.maxInstructions = 5000;
    McdProcessor proc(cfg, p);
    RunResult r = proc.run();
    EXPECT_NEAR(r.domains[1].avgFrequency, 750e6, 1e6);
    EXPECT_NEAR(r.domains[2].avgFrequency, 500e6, 1e6);
    // Voltage follows the table: scaled domains burn less per access.
    // Voltage is quantized to the DVFS engine's 320 levels.
    EXPECT_NEAR(proc.clock(Domain::Integer).voltage(),
                proc.dvfsTable().voltageFor(750e6), 2e-3);
}

TEST(Processor, StaticScalingSlowsExecution)
{
    Program p = workloads::build("g721", 1);
    SimConfig fast;
    fast.maxInstructions = 20000;
    SimConfig slow = fast;
    slow.domainFrequency = {1e9, 500e6, 500e6, 500e6};
    slow.clocking = ClockingStyle::Mcd;
    fast.clocking = ClockingStyle::Mcd;
    RunResult rf = McdProcessor(fast, p).run();
    RunResult rs = McdProcessor(slow, p).run();
    EXPECT_GT(rs.execTime, rf.execTime * 3 / 2);
}

TEST(Processor, DeterminismAcrossIdenticalConfigs)
{
    Program p = workloads::build("mst", 1);
    SimConfig cfg;
    cfg.clocking = ClockingStyle::Mcd;
    cfg.maxInstructions = 15000;
    RunResult a = McdProcessor(cfg, p).run();
    RunResult b = McdProcessor(cfg, p).run();
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_DOUBLE_EQ(a.totalEnergy, b.totalEnergy);
}

TEST(Processor, SeedChangesJitterOutcome)
{
    Program p = workloads::build("mst", 1);
    SimConfig cfg;
    cfg.clocking = ClockingStyle::Mcd;
    cfg.maxInstructions = 15000;
    RunResult a = McdProcessor(cfg, p).run();
    cfg.seed = 77;
    RunResult b = McdProcessor(cfg, p).run();
    EXPECT_NE(a.execTime, b.execTime);
    // But the architectural work is identical.
    EXPECT_EQ(a.committed, b.committed);
}

TEST(Processor, ScheduleDrivesReconfigurations)
{
    Program p = workloads::build("epic", 1);
    ReconfigSchedule sched;
    sched.add(fromMicroseconds(5.0), Domain::FloatingPoint, 250e6);
    sched.add(fromMicroseconds(10.0), Domain::Integer, 750e6);
    sched.finalize();

    SimConfig cfg;
    cfg.clocking = ClockingStyle::Mcd;
    cfg.dvfs = DvfsKind::XScale;
    cfg.dvfsTimeScale = 0.2;
    cfg.schedule = &sched;
    cfg.telemetry.freqSeries = true;
    McdProcessor proc(cfg, p);
    RunResult r = proc.run();
    EXPECT_EQ(r.domains[domainIndex(Domain::FloatingPoint)]
                  .reconfigurations, 1u);
    EXPECT_EQ(r.domains[domainIndex(Domain::Integer)].reconfigurations,
              1u);
    EXPECT_NEAR(r.domains[domainIndex(Domain::FloatingPoint)]
                    .minFrequency, 250e6, 1e6);
    EXPECT_FALSE(
        r.telemetry->sampler().frequencyTrace(Domain::Integer).empty());
}

TEST(Processor, TransmetaScheduleBlocksDomain)
{
    // Under the Transmeta model each reconfiguration stops the domain
    // for the PLL re-lock: total time must exceed the XScale run.
    Program p = workloads::build("g721", 1);
    ReconfigSchedule sched;
    for (int i = 1; i <= 8; ++i) {
        sched.add(fromMicroseconds(3.0 * i), Domain::Integer,
                  i % 2 ? 900e6 : 1e9);
    }
    sched.finalize();

    auto time = [&](DvfsKind k) {
        SimConfig cfg;
        cfg.clocking = ClockingStyle::Mcd;
        cfg.dvfs = k;
        cfg.dvfsTimeScale = 0.2;
        cfg.schedule = &sched;
        return McdProcessor(cfg, p).run().execTime;
    };
    EXPECT_GT(time(DvfsKind::Transmeta), time(DvfsKind::XScale));
}

TEST(Processor, GlobalVoltageFollowsFrequency)
{
    Program p = workloads::build("epic", 1);
    SimConfig cfg;
    cfg.clocking = ClockingStyle::SingleClock;
    cfg.domainFrequency = {500e6, 500e6, 500e6, 500e6};
    cfg.maxInstructions = 5000;
    McdProcessor proc(cfg, p);
    proc.run();
    EXPECT_NEAR(proc.clock(Domain::FrontEnd).voltage(),
                proc.dvfsTable().voltageFor(500e6), 1e-9);
}

TEST(Processor, EnergyScalesDownWithVoltage)
{
    Program p = workloads::build("epic", 1);
    SimConfig fast;
    fast.clocking = ClockingStyle::SingleClock;
    fast.maxInstructions = 10000;
    SimConfig slow = fast;
    slow.domainFrequency = {500e6, 500e6, 500e6, 500e6};
    RunResult rf = McdProcessor(fast, p).run();
    RunResult rs = McdProcessor(slow, p).run();
    // V(500 MHz) = 0.833: access energy scales by (0.833/1.2)^2 = 0.48,
    // with runtime-extension overheads pulling the total up a little.
    EXPECT_LT(rs.totalEnergy, rf.totalEnergy * 0.75);
    EXPECT_GT(rs.totalEnergy, rf.totalEnergy * 0.40);
}

} // namespace
} // namespace mcd
