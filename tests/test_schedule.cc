/**
 * @file
 * Tests for the reconfiguration schedule (log-file) format.
 */

#include <gtest/gtest.h>

#include "analysis/schedule.hh"

namespace mcd {
namespace {

TEST(Schedule, FinalizeSortsByTime)
{
    ReconfigSchedule s;
    s.add(3000, Domain::Integer, 500e6);
    s.add(1000, Domain::FloatingPoint, 250e6);
    s.add(2000, Domain::LoadStore, 750e6);
    s.finalize();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s.all()[0].when, 1000u);
    EXPECT_EQ(s.all()[1].when, 2000u);
    EXPECT_EQ(s.all()[2].when, 3000u);
}

TEST(Schedule, CountsPerDomain)
{
    ReconfigSchedule s;
    s.add(1, Domain::Integer, 1e9);
    s.add(2, Domain::Integer, 5e8);
    s.add(3, Domain::LoadStore, 5e8);
    EXPECT_EQ(s.countFor(Domain::Integer), 2u);
    EXPECT_EQ(s.countFor(Domain::LoadStore), 1u);
    EXPECT_EQ(s.countFor(Domain::FloatingPoint), 0u);
}

TEST(Schedule, ToTextPinsTheLogFormat)
{
    // offline_scheduler prints this text: one "<tick> <domain>
    // <Hz, rounded>" line per entry, in finalize() order.
    ReconfigSchedule s;
    s.add(123456789, Domain::Integer, 750e6);
    s.add(999, Domain::FloatingPoint, 250e6);
    s.add(5000000, Domain::LoadStore, 1e9);
    s.add(999, Domain::FrontEnd, 1e9 / 3);
    s.finalize();
    EXPECT_EQ(s.toText(), "999 FP 250000000\n"
                          "999 FE 333333333\n"
                          "5000000 LS 1000000000\n"
                          "123456789 INT 750000000\n");
}

TEST(Schedule, FinalizeIsStableForSameTickEntries)
{
    // Two entries at the same tick must keep their insertion order
    // after finalize() — the later-added one wins when replayed.
    ReconfigSchedule s;
    s.add(2000, Domain::Integer, 500e6);
    s.add(1000, Domain::Integer, 1e9);
    s.add(2000, Domain::Integer, 750e6);
    s.finalize();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s.all()[0].when, 1000u);
    EXPECT_DOUBLE_EQ(s.all()[1].frequency, 500e6);
    EXPECT_DOUBLE_EQ(s.all()[2].frequency, 750e6);
}

TEST(Schedule, EmptyByDefault)
{
    ReconfigSchedule s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.toText(), "");
}

} // namespace
} // namespace mcd
