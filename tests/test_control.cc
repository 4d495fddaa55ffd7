/**
 * @file
 * Tests for the pluggable DVFS control plane: ScheduleController
 * emission semantics and bit-identity with the SimConfig::schedule
 * convenience path, StaticController, the OnlineQueueController
 * attack/decay law on synthetic occupancy ramps, and the end-to-end
 * energy outcome of the online column.
 */

#include <gtest/gtest.h>

#include "control/controller.hh"
#include "control/online_queue.hh"
#include "core/experiment.hh"
#include "core/processor.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

/** Observation with @p occ mean occupancy on @p d's queue. */
DomainStats
statsFor(Domain d, double occ, Hertz freq)
{
    DomainStats s;
    s.domain = d;
    s.window.cycles = 1000;
    s.window.capacity = 64;
    s.window.occupancySum = static_cast<std::uint64_t>(
        occ * 1000.0 * 64.0 + 0.5);
    s.window.queueLength = static_cast<std::size_t>(occ * 64.0);
    s.frequency = freq;
    return s;
}

TEST(DomainStats, MeanOccupancy)
{
    EXPECT_NEAR(statsFor(Domain::Integer, 0.5, 1e9).window.meanOccupancy(),
                0.5, 1e-3);
    DomainStats empty;
    EXPECT_EQ(empty.window.meanOccupancy(), 0.0);
}

TEST(ScheduleController, EmitsEntriesAtOrAfterTheirTime)
{
    ReconfigSchedule sched;
    sched.add(1000, Domain::Integer, 500e6);
    sched.add(5000, Domain::Integer, 750e6);
    sched.finalize();
    ScheduleController c(sched);
    EXPECT_STREQ(c.name(), "schedule");
    EXPECT_EQ(c.samplePeriod(), 0u);
    EXPECT_EQ(c.pendingEntries(), 2u);

    c.observe(statsFor(Domain::Integer, 0.0, 1e9), 999);
    EXPECT_TRUE(c.requests().empty());

    c.observe(statsFor(Domain::Integer, 0.0, 1e9), 1200);
    ASSERT_EQ(c.requests().size(), 1u);
    EXPECT_EQ(c.requests()[0].domain, Domain::Integer);
    EXPECT_DOUBLE_EQ(c.requests()[0].frequency, 500e6);
    c.clearRequests();
    EXPECT_EQ(c.pendingEntries(), 1u);

    // Other domains' edges never drain Integer's entries.
    c.observe(statsFor(Domain::LoadStore, 0.0, 1e9), 9000);
    EXPECT_TRUE(c.requests().empty());

    c.observe(statsFor(Domain::Integer, 0.0, 500e6), 9000);
    ASSERT_EQ(c.requests().size(), 1u);
    EXPECT_DOUBLE_EQ(c.requests()[0].frequency, 750e6);
    EXPECT_EQ(c.pendingEntries(), 0u);
}

TEST(ScheduleController, MultipleSameTickEntriesEmitInScheduleOrder)
{
    ReconfigSchedule sched;
    sched.add(2000, Domain::FloatingPoint, 500e6);
    sched.add(2000, Domain::FloatingPoint, 250e6);
    sched.add(2000, Domain::Integer, 750e6);
    sched.finalize();
    ScheduleController c(sched);

    // One late edge drains both FP entries, in schedule order: the
    // 250 MHz request lands last and wins.
    c.observe(statsFor(Domain::FloatingPoint, 0.0, 1e9), 3000);
    ASSERT_EQ(c.requests().size(), 2u);
    EXPECT_DOUBLE_EQ(c.requests()[0].frequency, 500e6);
    EXPECT_DOUBLE_EQ(c.requests()[1].frequency, 250e6);
    c.clearRequests();

    c.observe(statsFor(Domain::Integer, 0.0, 1e9), 3000);
    ASSERT_EQ(c.requests().size(), 1u);
    EXPECT_DOUBLE_EQ(c.requests()[0].frequency, 750e6);
}

TEST(ScheduleController, ExplicitControllerMatchesScheduleConfigPath)
{
    Program p = workloads::build("epic", 1);
    ReconfigSchedule sched;
    sched.add(fromMicroseconds(5.0), Domain::FloatingPoint, 250e6);
    sched.add(fromMicroseconds(10.0), Domain::Integer, 750e6);
    sched.add(fromMicroseconds(40.0), Domain::Integer, 1e9);
    sched.finalize();

    SimConfig viaSchedule;
    viaSchedule.clocking = ClockingStyle::Mcd;
    viaSchedule.dvfs = DvfsKind::XScale;
    viaSchedule.dvfsTimeScale = 0.2;
    viaSchedule.schedule = &sched;
    RunResult a = McdProcessor(viaSchedule, p).run();

    ScheduleController ctrl(sched);
    SimConfig viaController = viaSchedule;
    viaController.schedule = nullptr;
    viaController.controller = &ctrl;
    RunResult b = McdProcessor(viaController, p).run();

    // Bit-identical: same requests at the same edges, same jitter
    // stream, so every statistic matches exactly.
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_DOUBLE_EQ(a.totalEnergy, b.totalEnergy);
    for (int di = 0; di < numDomains; ++di) {
        EXPECT_EQ(a.domains[di].reconfigurations,
                  b.domains[di].reconfigurations);
        EXPECT_DOUBLE_EQ(a.domains[di].avgFrequency,
                         b.domains[di].avgFrequency);
    }
}

TEST(ScheduleController, NextObservationIsTheNextEntry)
{
    ReconfigSchedule sched;
    sched.add(1000, Domain::Integer, 500e6);
    sched.add(5000, Domain::Integer, 750e6);
    sched.finalize();
    ScheduleController c(sched);
    EXPECT_EQ(c.nextObservation(Domain::Integer, 0), 1000u);
    EXPECT_EQ(c.nextObservation(Domain::LoadStore, 0), neverTick);

    c.observe(statsFor(Domain::Integer, 0.0, 1e9), 1200);
    EXPECT_EQ(c.nextObservation(Domain::Integer, 1200), 5000u);
    c.observe(statsFor(Domain::Integer, 0.0, 1e9), 5000);
    EXPECT_EQ(c.nextObservation(Domain::Integer, 5000), neverTick);
}

/**
 * Replays a schedule through an inner ScheduleController, counting
 * observe() calls; with @p latch false it keeps the default
 * nextObservation(), which observes every edge.
 */
class CountingReplay final : public DvfsController
{
  public:
    CountingReplay(const ReconfigSchedule &s, bool latch)
        : inner(s), latched(latch)
    {}

    const char *name() const override { return "counting"; }

    void
    observe(const DomainStats &stats, Tick now) override
    {
        ++calls;
        inner.observe(stats, now);
        for (const FreqRequest &q : inner.requests())
            request(q.domain, q.frequency);
        inner.clearRequests();
    }

    Tick
    nextObservation(Domain d, Tick now) const override
    {
        return latched ? inner.nextObservation(d, now)
                       : DvfsController::nextObservation(d, now);
    }

    std::uint64_t calls = 0;

  private:
    ScheduleController inner;
    bool latched;
};

TEST(ScheduleController, LatchedObservationsMatchEveryEdge)
{
    Program p = workloads::build("epic", 1);
    ReconfigSchedule sched;
    sched.add(fromMicroseconds(5.0), Domain::FloatingPoint, 250e6);
    sched.add(fromMicroseconds(10.0), Domain::Integer, 750e6);
    sched.add(fromMicroseconds(10.0), Domain::Integer, 500e6);
    sched.add(fromMicroseconds(40.0), Domain::Integer, 1e9);
    sched.finalize();

    SimConfig cfg;
    cfg.clocking = ClockingStyle::Mcd;
    cfg.dvfs = DvfsKind::XScale;
    cfg.dvfsTimeScale = 0.2;

    CountingReplay everyEdge(sched, false);
    cfg.controller = &everyEdge;
    RunResult a = McdProcessor(cfg, p).run();

    CountingReplay latched(sched, true);
    cfg.controller = &latched;
    RunResult b = McdProcessor(cfg, p).run();

    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    for (int di = 0; di < numDomains; ++di) {
        EXPECT_EQ(a.domains[di].reconfigurations,
                  b.domains[di].reconfigurations);
        EXPECT_EQ(a.domains[di].avgFrequency, b.domains[di].avgFrequency);
    }
    // One observation at each domain's first edge, then at most one
    // per distinct entry time.
    EXPECT_LE(latched.calls, numDomains + 3u);
    EXPECT_GT(everyEdge.calls, 1000u);
}

TEST(StaticController, PinsEachDomainOnce)
{
    StaticController c({0.0, 500e6, 250e6, 0.0});
    c.observe(statsFor(Domain::Integer, 0.0, 1e9), 100);
    ASSERT_EQ(c.requests().size(), 1u);
    EXPECT_DOUBLE_EQ(c.requests()[0].frequency, 500e6);
    c.clearRequests();

    // Already at target / zero target: nothing to request.
    c.observe(statsFor(Domain::Integer, 0.0, 1e9), 200);
    c.observe(statsFor(Domain::FrontEnd, 0.0, 1e9), 200);
    EXPECT_TRUE(c.requests().empty());

    c.observe(statsFor(Domain::FloatingPoint, 0.0, 1e9), 300);
    ASSERT_EQ(c.requests().size(), 1u);
    EXPECT_DOUBLE_EQ(c.requests()[0].frequency, 250e6);
}

TEST(StaticController, SkipsRequestWhenAlreadyAtTarget)
{
    StaticController c({0.0, 500e6, 0.0, 0.0});
    c.observe(statsFor(Domain::Integer, 0.0, 500e6), 100);
    EXPECT_TRUE(c.requests().empty());
}

TEST(OnlineQueue, FirstObservationOnlyCalibrates)
{
    OnlineQueueController c;
    EXPECT_EQ(c.pointIndex(Domain::Integer), -1);
    c.observe(statsFor(Domain::Integer, 0.5, 1e9), 1000);
    EXPECT_TRUE(c.requests().empty());
    DvfsTable t;
    EXPECT_EQ(c.pointIndex(Domain::Integer), t.numPoints() - 1);
}

TEST(OnlineQueue, AttacksUpUnderRisingPressure)
{
    OnlineQueueController c;
    DvfsTable t;
    // Calibrate at a mid-table frequency.
    Hertz mid = t.point(t.numPoints() / 2).frequency;
    c.observe(statsFor(Domain::Integer, 0.20, mid), 0);
    int start = c.pointIndex(Domain::Integer);

    // Occupancy ramps up fast: every interval attacks upward.
    c.observe(statsFor(Domain::Integer, 0.40, mid), 2500);
    ASSERT_EQ(c.requests().size(), 1u);
    int afterOne = c.pointIndex(Domain::Integer);
    EXPECT_EQ(afterOne, start + c.params().attackPoints);
    EXPECT_GT(c.requests()[0].frequency, mid);
    c.clearRequests();

    // Above the high-water mark: jump straight to full speed.
    c.observe(statsFor(Domain::Integer, 0.90, mid), 5000);
    ASSERT_EQ(c.requests().size(), 1u);
    EXPECT_EQ(c.pointIndex(Domain::Integer), t.numPoints() - 1);
    EXPECT_DOUBLE_EQ(c.requests()[0].frequency, t.fastest().frequency);
}

TEST(OnlineQueue, DecaysWhenQuietAndFasterWhenIdle)
{
    OnlineQueueController c;
    DvfsTable t;
    Hertz top = t.fastest().frequency;
    c.observe(statsFor(Domain::LoadStore, 0.30, top), 0);
    int start = c.pointIndex(Domain::LoadStore);

    // Steady moderate occupancy: slow downward probe.
    c.observe(statsFor(Domain::LoadStore, 0.30, top), 2500);
    EXPECT_EQ(c.pointIndex(Domain::LoadStore),
              start - c.params().decayPoints);
    c.clearRequests();

    // Near-idle: fast decay. Feed a sequence and check we fall to the
    // table floor and then go quiet (no more requests at the floor).
    for (int i = 2; i < 40; ++i)
        c.observe(statsFor(Domain::LoadStore, 0.0, top), i * 2500);
    EXPECT_EQ(c.pointIndex(Domain::LoadStore), 0);
    c.clearRequests();
    c.observe(statsFor(Domain::LoadStore, 0.0, top), 200000);
    EXPECT_TRUE(c.requests().empty());
}

TEST(OnlineQueue, HoldsWhenQueueSettledBetweenWaterMarks)
{
    // A steady queue between holdWater and highWater is the settled
    // state: the operating point must not move.
    OnlineQueueController c;
    DvfsTable t;
    Hertz mid = t.point(t.numPoints() / 2).frequency;
    c.observe(statsFor(Domain::Integer, 0.50, mid), 0);
    int start = c.pointIndex(Domain::Integer);
    for (int i = 1; i < 10; ++i)
        c.observe(statsFor(Domain::Integer, 0.50, mid), i * 2500);
    EXPECT_TRUE(c.requests().empty());
    EXPECT_EQ(c.pointIndex(Domain::Integer), start);
}

TEST(OnlineQueue, FrontEndStaysPinnedByDefault)
{
    OnlineQueueController c;
    c.observe(statsFor(Domain::FrontEnd, 0.9, 1e9), 0);
    c.observe(statsFor(Domain::FrontEnd, 0.0, 1e9), 2500);
    EXPECT_TRUE(c.requests().empty());
    EXPECT_EQ(c.pointIndex(Domain::FrontEnd), -1);

    OnlineQueueParams prm;
    prm.scaleFrontEnd = true;
    OnlineQueueController fe(prm);
    fe.observe(statsFor(Domain::FrontEnd, 0.5, 1e9), 0);
    fe.observe(statsFor(Domain::FrontEnd, 0.04, 1e9), 2500);
    EXPECT_FALSE(fe.requests().empty());
}

TEST(OnlineQueue, DeterministicAcrossRuns)
{
    Program p = workloads::build("mst", 1);
    SimConfig cfg;
    cfg.clocking = ClockingStyle::Mcd;
    cfg.dvfs = DvfsKind::XScale;
    cfg.dvfsTimeScale = 0.2;
    cfg.maxInstructions = 30000;

    OnlineQueueController c1;
    SimConfig a = cfg;
    a.controller = &c1;
    RunResult ra = McdProcessor(a, p).run();

    OnlineQueueController c2;
    SimConfig b = cfg;
    b.controller = &c2;
    RunResult rb = McdProcessor(b, p).run();

    EXPECT_EQ(ra.execTime, rb.execTime);
    EXPECT_EQ(ra.committed, rb.committed);
    EXPECT_DOUBLE_EQ(ra.totalEnergy, rb.totalEnergy);
}

TEST(OnlineQueue, ControllerInUseIsReported)
{
    Program p = workloads::build("epic", 1);
    OnlineQueueController ctrl;
    SimConfig cfg;
    cfg.clocking = ClockingStyle::Mcd;
    cfg.dvfs = DvfsKind::XScale;
    cfg.controller = &ctrl;
    cfg.maxInstructions = 1000;
    McdProcessor proc(cfg, p);
    EXPECT_EQ(proc.controllerInUse(), &ctrl);
    McdProcessor plain(SimConfig{}, p);
    EXPECT_EQ(plain.controllerInUse(), nullptr);
}

/** The online column must save energy vs the MCD baseline. */
void
expectOnlineSavesEnergy(const char *bench)
{
    ExperimentConfig ec;
    ec.legs = {LegSpec::controllerLeg("online", "online-queue")};
    BenchmarkResults r = ExperimentRunner(ec).runBenchmark(bench);
    ASSERT_FALSE(r.anyFailed()) << bench;
    const RunResult &online = r.leg("online");
    EXPECT_LT(online.totalEnergy, r.mcdBaseline.totalEnergy)
        << bench << ": online controller saved no energy";
    // And it must actually reconfigure something.
    std::uint64_t reconfigs = 0;
    for (const DomainSummary &d : online.domains)
        reconfigs += d.reconfigurations;
    EXPECT_GT(reconfigs, 0u) << bench;
}

TEST(OnlineQueue, SavesEnergyOnAdpcm) { expectOnlineSavesEnergy("adpcm"); }
TEST(OnlineQueue, SavesEnergyOnMst) { expectOnlineSavesEnergy("mst"); }

} // namespace
} // namespace mcd
