/**
 * @file
 * Tests for the Transmeta / XScale DVFS transition engines.
 */

#include <gtest/gtest.h>

#include "clock/clock_domain.hh"
#include "clock/dvfs.hh"
#include "clock/operating_points.hh"
#include "obs/telemetry.hh"

namespace mcd {
namespace {

struct Rig
{
    DvfsTable table;
    ClockDomain clock{Domain::Integer, 1e9, 1, 0.0, false};

    DomainDvfs
    make(DvfsParams p)
    {
        return DomainDvfs(p, table, clock, 99);
    }
};

TEST(DvfsParams, PaperValues)
{
    DvfsParams tm = DvfsParams::transmeta();
    EXPECT_EQ(tm.stepsFullRange, 32);
    EXPECT_EQ(tm.stepTime, fromMicroseconds(20.0));
    EXPECT_TRUE(tm.pllRelock);
    EXPECT_FALSE(tm.freqTracksVoltage);
    EXPECT_EQ(tm.relockMean, fromMicroseconds(15.0));
    EXPECT_EQ(tm.relockMin, fromMicroseconds(10.0));
    EXPECT_EQ(tm.relockMax, fromMicroseconds(20.0));
    // Full-range traversal: 32 * 20 us = 640 us (paper).
    EXPECT_EQ(tm.stepsFullRange * tm.stepTime, fromMicroseconds(640.0));

    DvfsParams xs = DvfsParams::xscale();
    EXPECT_EQ(xs.stepsFullRange, 320);
    EXPECT_FALSE(xs.pllRelock);
    EXPECT_TRUE(xs.freqTracksVoltage);
    // Full-range traversal: 320 * 0.1718 us ~= 55 us (paper).
    EXPECT_NEAR(static_cast<double>(xs.stepsFullRange * xs.stepTime),
                fromMicroseconds(55.0), fromMicroseconds(0.05));
}

TEST(DvfsParams, TimeScaleShrinksEverything)
{
    DvfsParams tm = DvfsParams::transmeta(0.1);
    EXPECT_EQ(tm.stepTime, fromMicroseconds(2.0));
    EXPECT_EQ(tm.relockMean, fromMicroseconds(1.5));
}

TEST(DomainDvfs, NoneKindIsInstant)
{
    Rig rig;
    DomainDvfs d = rig.make(DvfsParams::none());
    d.requestFrequency(1000, 500e6);
    EXPECT_DOUBLE_EQ(rig.clock.frequency(), 500e6);
    EXPECT_NEAR(rig.clock.voltage(), rig.table.voltageFor(500e6), 0.02);
    EXPECT_FALSE(d.transitioning());
    EXPECT_EQ(d.reconfigurations(), 1u);
}

TEST(DomainDvfs, XScaleDownIsImmediateFreqThenVoltage)
{
    Rig rig;
    DomainDvfs d = rig.make(DvfsParams::xscale());
    Volt v0 = rig.clock.voltage();
    d.requestFrequency(1000, 500e6);
    // Frequency drops right away.
    EXPECT_DOUBLE_EQ(rig.clock.frequency(), 500e6);
    // Voltage is still high and ramps down over time.
    EXPECT_DOUBLE_EQ(rig.clock.voltage(), v0);
    Tick t = 1000;
    while (d.transitioning() && t < fromMicroseconds(100)) {
        t += 1000;
        d.update(t);
    }
    EXPECT_FALSE(d.transitioning());
    EXPECT_NEAR(rig.clock.voltage(), rig.table.voltageFor(500e6), 0.01);
    // Never blocked: XScale executes through changes.
    EXPECT_FALSE(d.executionBlocked(t));
}

TEST(DomainDvfs, XScaleUpTracksVoltage)
{
    Rig rig;
    DomainDvfs d = rig.make(DvfsParams::xscale());
    d.requestFrequency(1000, 250e6);
    Tick t = 1000;
    while (d.transitioning()) {
        t += 1000;
        d.update(t);
    }
    ASSERT_DOUBLE_EQ(rig.clock.frequency(), 250e6);

    d.requestFrequency(t, 1e9);
    // Mid-ramp the frequency must follow the rising voltage without
    // ever exceeding what the voltage supports.
    bool sawIntermediate = false;
    while (d.transitioning()) {
        t += 1000;
        d.update(t);
        Hertz f = rig.clock.frequency();
        Hertz safe = rig.table.frequencyFor(rig.clock.voltage());
        ASSERT_LE(f, safe + 1e6);
        if (f > 260e6 && f < 990e6)
            sawIntermediate = true;
    }
    EXPECT_TRUE(sawIntermediate);
    EXPECT_DOUBLE_EQ(rig.clock.frequency(), 1e9);
}

TEST(DomainDvfs, XScaleFullRangeRampTime)
{
    Rig rig;
    DomainDvfs d = rig.make(DvfsParams::xscale());
    d.requestFrequency(0, 250e6);
    Tick t = 0;
    while (d.transitioning() && t < fromMicroseconds(200)) {
        t += 100;
        d.update(t);
    }
    // 320 steps at 0.1718 us: about 55 us for the full range.
    EXPECT_NEAR(static_cast<double>(t), fromMicroseconds(55.0),
                fromMicroseconds(1.5));
}

TEST(DomainDvfs, TransmetaDownRelocksBeforeRunning)
{
    Rig rig;
    DomainDvfs d = rig.make(DvfsParams::transmeta());
    d.requestFrequency(1000, 500e6);
    // PLL re-lock window: the domain is blocked and the frequency has
    // not changed application-visibly until lock completes.
    EXPECT_TRUE(d.executionBlocked(1000));
    EXPECT_TRUE(d.executionBlocked(1000 + fromMicroseconds(9.0)));
    Tick t = 1000 + fromMicroseconds(25.0);     // > relockMax
    d.update(t);
    EXPECT_FALSE(d.executionBlocked(t));
    EXPECT_DOUBLE_EQ(rig.clock.frequency(), 500e6);
    // Voltage then ramps down in the background.
    while (d.transitioning() && t < fromMicroseconds(2000)) {
        t += fromMicroseconds(1.0);
        d.update(t);
    }
    EXPECT_NEAR(rig.clock.voltage(), rig.table.voltageFor(500e6), 0.02);
}

TEST(DomainDvfs, TransmetaUpRampsVoltageFirst)
{
    Rig rig;
    DomainDvfs d = rig.make(DvfsParams::transmeta());
    d.requestFrequency(0, 250e6);
    Tick t = 0;
    while (d.transitioning() && t < fromMicroseconds(5000)) {
        t += fromMicroseconds(1.0);
        d.update(t);
    }
    ASSERT_DOUBLE_EQ(rig.clock.frequency(), 250e6);
    Tick upStart = t;
    d.requestFrequency(t, 1e9);
    // The frequency must not rise before the voltage reaches target.
    while (d.transitioning() && t < upStart + fromMicroseconds(5000)) {
        t += fromMicroseconds(1.0);
        d.update(t);
        if (rig.clock.voltage() <
            rig.table.voltageFor(1e9) - 1e-9) {
            ASSERT_DOUBLE_EQ(rig.clock.frequency(), 250e6);
        }
    }
    EXPECT_DOUBLE_EQ(rig.clock.frequency(), 1e9);
    // Full range up: 32 steps * 20 us + relock ~ 650 us.
    EXPECT_NEAR(static_cast<double>(t - upStart),
                fromMicroseconds(655.0), fromMicroseconds(25.0));
}

TEST(DomainDvfs, RelockTimeWithinPaperRange)
{
    Rig rig;
    for (std::uint64_t seed = 1; seed < 30; ++seed) {
        ClockDomain clk(Domain::Integer, 1e9, 1, 0.0, false);
        DomainDvfs d(DvfsParams::transmeta(), rig.table, clk, seed);
        d.requestFrequency(0, 900e6);
        // Find when the block clears.
        Tick lo = 0, hi = fromMicroseconds(30.0);
        while (hi - lo > 1000) {
            Tick mid = (lo + hi) / 2;
            if (d.executionBlocked(mid))
                lo = mid;
            else
                hi = mid;
        }
        EXPECT_GE(hi, fromMicroseconds(9.9));
        EXPECT_LE(hi, fromMicroseconds(20.1));
    }
}

TEST(DomainDvfs, EstimateTransitionTime)
{
    Rig rig;
    DomainDvfs xs = rig.make(DvfsParams::xscale());
    // Full range: 320 steps.
    EXPECT_NEAR(static_cast<double>(xs.estimateTransitionTime(1e9, 250e6)),
                fromMicroseconds(55.0), fromMicroseconds(0.1));
    EXPECT_EQ(xs.estimateTransitionTime(1e9, 1e9), 0u);

    DomainDvfs tm = rig.make(DvfsParams::transmeta());
    Tick full = tm.estimateTransitionTime(250e6, 1e9);
    EXPECT_NEAR(static_cast<double>(full), fromMicroseconds(655.0),
                fromMicroseconds(1.0));
}

TEST(DomainDvfs, TraceRecordsChanges)
{
    Rig rig;
    DomainDvfs d = rig.make(DvfsParams::xscale());
    obs::TelemetryConfig tc;
    tc.freqSeries = true;
    obs::Telemetry telem(tc);
    d.attachTelemetry(&telem);
    d.requestFrequency(1000, 500e6);
    Tick t = 1000;
    while (d.transitioning()) {
        t += 1000;
        d.update(t);
    }
    d.requestFrequency(t, 750e6);
    while (d.transitioning()) {
        t += 1000;
        d.update(t);
    }
    const std::vector<FreqTracePoint> &trace =
        telem.sampler().frequencyTrace(Domain::Integer);
    ASSERT_GE(trace.size(), 2u);
    // Times are monotone.
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].when, trace[i - 1].when);
    EXPECT_DOUBLE_EQ(trace.back().frequency, 750e6);
    EXPECT_DOUBLE_EQ(rig.clock.frequency(), 750e6);
    // Only the engine's own domain saw changes.
    EXPECT_TRUE(
        telem.sampler().frequencyTrace(Domain::LoadStore).empty());
}

TEST(DomainDvfs, RepeatRequestIsNoop)
{
    Rig rig;
    DomainDvfs d = rig.make(DvfsParams::xscale());
    d.requestFrequency(0, 500e6);
    EXPECT_EQ(d.reconfigurations(), 1u);
    d.requestFrequency(10, 500e6);
    EXPECT_EQ(d.reconfigurations(), 1u);
}

TEST(DomainDvfs, RequestsClampToTable)
{
    Rig rig;
    DomainDvfs d = rig.make(DvfsParams::none());
    d.requestFrequency(0, 100e6);
    EXPECT_DOUBLE_EQ(rig.clock.frequency(), 250e6);
    d.requestFrequency(1, 5e9);
    EXPECT_DOUBLE_EQ(rig.clock.frequency(), 1e9);
}

TEST(DvfsKindNames, AreStable)
{
    EXPECT_STREQ(dvfsKindName(DvfsKind::None), "none");
    EXPECT_STREQ(dvfsKindName(DvfsKind::Transmeta), "Transmeta");
    EXPECT_STREQ(dvfsKindName(DvfsKind::XScale), "XScale");
}

TEST(DvfsKindNames, FromNameRoundTripsEveryKind)
{
    for (DvfsKind k : {DvfsKind::None, DvfsKind::Transmeta,
                       DvfsKind::XScale}) {
        auto back = dvfsKindFromName(dvfsKindName(k));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, k);
    }
}

TEST(DvfsKindNames, FromNameIsCaseInsensitive)
{
    EXPECT_EQ(dvfsKindFromName("transmeta"), DvfsKind::Transmeta);
    EXPECT_EQ(dvfsKindFromName("XSCALE"), DvfsKind::XScale);
    EXPECT_EQ(dvfsKindFromName("None"), DvfsKind::None);
}

TEST(DvfsKindNames, FromNameRejectsUnknown)
{
    EXPECT_FALSE(dvfsKindFromName("").has_value());
    EXPECT_FALSE(dvfsKindFromName("longrun").has_value());
    EXPECT_FALSE(dvfsKindFromName("XScale2").has_value());
    EXPECT_FALSE(dvfsKindFromName(" xscale").has_value());
}

} // namespace
} // namespace mcd
