/**
 * @file
 * Tests for the inter-domain synchronization rule, ports, signals
 * and credit returns (paper Section 2.2).
 */

#include <gtest/gtest.h>

#include "clock/sync.hh"

namespace mcd {
namespace {

TEST(SyncRule, SameDomainIsNextEdge)
{
    SyncRule r(false, 300.0);
    EXPECT_FALSE(r.visible(1000, 1000));
    EXPECT_TRUE(r.visible(1000, 1001));
    EXPECT_TRUE(r.visible(1000, 2000));
    EXPECT_EQ(r.earliestVisible(1000), 1001u);
}

TEST(SyncRule, CrossDomainRequiresTs)
{
    SyncRule r(true, 300.0);
    EXPECT_FALSE(r.visible(1000, 1200));    // T = 200 < Ts
    EXPECT_FALSE(r.visible(1000, 1299));
    EXPECT_TRUE(r.visible(1000, 1300));     // T = Ts exactly
    EXPECT_TRUE(r.visible(1000, 2300));
    EXPECT_EQ(r.earliestVisible(1000), 1300u);
    EXPECT_TRUE(r.isCrossDomain());
    EXPECT_EQ(r.syncTimePs(), 300u);
}

TEST(SyncRule, ForMaxFrequencyUsesPaperFraction)
{
    SyncRule r = SyncRule::forMaxFrequency(true, 1e9);
    // 30% of a 1 GHz period = 300 ps.
    EXPECT_EQ(r.syncTimePs(), 300u);
    SyncRule slow = SyncRule::forMaxFrequency(true, 500e6);
    EXPECT_EQ(slow.syncTimePs(), 600u);
}

TEST(SyncRule, DefaultIsSameDomain)
{
    SyncRule r;
    EXPECT_FALSE(r.isCrossDomain());
    EXPECT_TRUE(r.visible(10, 11));
}

TEST(CreditReturn, InitialCreditsAvailable)
{
    CreditReturnChannel c(SyncRule(true, 300.0), 4);
    EXPECT_EQ(c.credits(0), 4);
}

TEST(CreditReturn, TakeAndGiveWithSync)
{
    CreditReturnChannel c(SyncRule(true, 300.0), 2);
    c.take();
    c.take();
    EXPECT_EQ(c.credits(5000), 0);
    c.give(5000);
    // Not visible until the sync time elapses.
    EXPECT_EQ(c.credits(5200), 0);
    EXPECT_EQ(c.credits(5300), 1);
    c.give(6000);
    EXPECT_EQ(c.credits(10000), 2);
}

TEST(CreditReturn, ReturnsPreserveOrdering)
{
    CreditReturnChannel c(SyncRule(true, 100.0), 1);
    c.take();
    c.give(1000);
    c.give(2000);   // more gives than takes is the caller's business
    EXPECT_EQ(c.credits(1100), 1);
    EXPECT_EQ(c.credits(2100), 2);
}

// ---------------------------------------------------------------------
// SyncPort: the typed queue boundary the execution units consume
// through. Blocked probes are counted at the port.
// ---------------------------------------------------------------------

TEST(SyncPort, WriteLandingExactlyTsAfterSourceEdge)
{
    // A destination edge exactly Ts after the write is the first one
    // allowed to latch the value (paper: t_e - t_w >= T_s).
    SyncPort<int> port(SyncRule(true, 300.0));
    port.push(7, 1000);
    EXPECT_FALSE(port.probe(port[0], 1299));    // 1 ps short: blocked
    EXPECT_EQ(port.waits(), 1u);
    EXPECT_TRUE(port.probe(port[0], 1300));     // exactly Ts: visible
    EXPECT_EQ(port.waits(), 1u);                // success doesn't count
}

TEST(SyncPort, SameTickSourceAndDestEdgesNeverVisible)
{
    // Coincident source/destination edges can never transfer, even in
    // the degenerate same-domain rule: visibility requires a strictly
    // later destination edge.
    SyncPort<int> cross(SyncRule(true, 300.0));
    cross.push(1, 5000);
    EXPECT_FALSE(cross.probe(cross[0], 5000));
    EXPECT_EQ(cross.waits(), 1u);

    SyncPort<int> same{SyncRule(false, 0.0)};
    same.push(2, 5000);
    EXPECT_FALSE(same.probe(same[0], 5000));
    EXPECT_EQ(same.waits(), 1u);
}

TEST(SyncPort, SingletonClockPassthrough)
{
    // Singly clocked configuration: the same-domain rule collapses to
    // plain next-edge visibility, so the port adds no wait cycles.
    SyncPort<int> port{SyncRule(false, 0.0)};
    port.push(3, 1000);
    EXPECT_TRUE(port.probe(port[0], 1001));
    EXPECT_EQ(port.waits(), 0u);
}

TEST(SyncPort, EraseIfCompactsIssuedEntries)
{
    SyncPort<int> port{SyncRule(false, 0.0)};
    port.push(1, 10);
    port.push(2, 20);
    port.push(3, 30);
    port.eraseIf([](const SyncPort<int>::Entry &e) {
        return e.value == 2;
    });
    ASSERT_EQ(port.size(), 2u);
    EXPECT_EQ(port[0].value, 1);
    EXPECT_EQ(port[1].value, 3);
}

// ---------------------------------------------------------------------
// SyncSignal / SyncSignalGate: single ready lines across a boundary.
// ---------------------------------------------------------------------

TEST(SyncSignal, UnassertedProbeIsNotAWait)
{
    SyncSignal sig(SyncRule(true, 300.0));
    EXPECT_FALSE(sig.probe(false, 0, 1000));    // nothing in flight
    EXPECT_EQ(sig.waits(), 0u);
    EXPECT_FALSE(sig.probe(true, 900, 1000));   // asserted, too early
    EXPECT_EQ(sig.waits(), 1u);
    EXPECT_TRUE(sig.probe(true, 700, 1000));
    EXPECT_EQ(sig.waits(), 1u);
}

TEST(SyncSignalGate, PerSourceRulesAndQuietProbe)
{
    SyncSignalGate gate;
    gate.setRule(Domain::Integer, SyncRule(true, 300.0));
    gate.setRule(Domain::FrontEnd, SyncRule(false, 0.0));

    // Cross-domain source honors its Ts; same-domain source is
    // next-edge.
    EXPECT_FALSE(gate.probe(Domain::Integer, 1000, 1200));
    EXPECT_TRUE(gate.probe(Domain::Integer, 1000, 1300));
    EXPECT_TRUE(gate.probe(Domain::FrontEnd, 1000, 1001));
    EXPECT_EQ(gate.waits(), 1u);

    // Spectator probes never count as stalls.
    EXPECT_FALSE(gate.probeQuiet(Domain::Integer, 2000, 2100));
    EXPECT_EQ(gate.waits(), 1u);
}

} // namespace
} // namespace mcd
