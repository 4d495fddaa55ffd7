/**
 * @file
 * Tests for the telemetry layer (src/obs): stats registry, time-series
 * sampler, Chrome-trace export, and their wiring through McdProcessor
 * and the experiment matrix.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/schedule.hh"
#include "common/log.hh"
#include "core/experiment.hh"
#include "core/processor.hh"
#include "obs/freq_accum.hh"
#include "obs/stats_registry.hh"
#include "obs/telemetry.hh"
#include "obs/time_series.hh"
#include "obs/trace_export.hh"
#include "workloads/workloads.hh"

namespace mcd {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::StatKind;
using obs::StatsRegistry;
using obs::TimeSample;
using obs::TimeSeriesSampler;

/** Structural JSON check: balanced braces/brackets outside strings. */
void
expectBalancedJson(const std::string &text)
{
    int brace = 0, bracket = 0;
    bool inString = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        switch (c) {
          case '"': inString = true; break;
          case '{': ++brace; break;
          case '}': --brace; break;
          case '[': ++bracket; break;
          case ']': --bracket; break;
        }
        EXPECT_GE(brace, 0);
        EXPECT_GE(bracket, 0);
    }
    EXPECT_EQ(brace, 0);
    EXPECT_EQ(bracket, 0);
    EXPECT_FALSE(inString);
}

TEST(StatsRegistry, LookupAndIteration)
{
    StatsRegistry reg;
    Counter &c = reg.counter("clock.int.freq_changes", "changes");
    Gauge &g = reg.gauge("run.ipc");
    c.inc();
    c.inc(4);
    g.set(1.25);

    // Registration is idempotent: same name, same object.
    EXPECT_EQ(&reg.counter("clock.int.freq_changes"), &c);
    EXPECT_EQ(reg.size(), 2u);

    const StatsRegistry::Entry *e = reg.find("clock.int.freq_changes");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->kind(), StatKind::Counter);
    EXPECT_EQ(std::get<Counter>(e->stat).value(), 5u);
    EXPECT_EQ(e->desc, "changes");
    EXPECT_EQ(reg.find("nope"), nullptr);

    // entries() preserves registration order.
    EXPECT_EQ(reg.entries()[0].name, "clock.int.freq_changes");
    EXPECT_EQ(reg.entries()[1].name, "run.ipc");
}

TEST(StatsRegistry, WithPrefixRespectsDottedBoundaries)
{
    StatsRegistry reg;
    reg.counter("clock.int.x");
    reg.counter("clock.fp.x");
    reg.counter("clocking.y");   // must NOT match prefix "clock"
    reg.counter("clock");        // exact match counts

    auto under = reg.withPrefix("clock");
    ASSERT_EQ(under.size(), 3u);
    EXPECT_EQ(under[0]->name, "clock.int.x");
    EXPECT_EQ(under[1]->name, "clock.fp.x");
    EXPECT_EQ(under[2]->name, "clock");

    EXPECT_EQ(reg.withPrefix("clock.int").size(), 1u);
    EXPECT_TRUE(reg.withPrefix("missing").empty());
}

TEST(StatsRegistry, MergeCombinesByName)
{
    StatsRegistry a;
    a.counter("n").inc(3);
    a.gauge("g").set(1.0);
    a.histogram("h", {1.0, 2.0}).add(0.5);

    StatsRegistry b;
    b.counter("n").inc(4);
    b.gauge("g").set(7.0);
    b.histogram("h", {1.0, 2.0}).add(5.0);
    b.counter("only_in_b").inc(9);

    a.merge(b);
    EXPECT_EQ(a.counter("n").value(), 7u);
    EXPECT_DOUBLE_EQ(a.gauge("g").value(), 7.0);    // later value wins
    const Histogram &h = a.histogram("h", {1.0, 2.0});
    EXPECT_EQ(h.summary().count(), 2u);
    EXPECT_EQ(h.bucketCount(0), 1u);    // 0.5 <= 1.0
    EXPECT_EQ(h.bucketCount(2), 1u);    // 5.0 overflows
    EXPECT_EQ(a.counter("only_in_b").value(), 9u);
}

TEST(Histogram, BucketingIsUpperInclusive)
{
    Histogram h({0.5, 1.0});
    h.add(0.5);     // first bucket (inclusive upper bound)
    h.add(0.50001); // second bucket
    h.add(1.0);     // second bucket
    h.add(42.0);    // overflow
    ASSERT_EQ(h.numBuckets(), 3u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_DOUBLE_EQ(h.upperBound(0), 0.5);
    EXPECT_TRUE(std::isinf(h.upperBound(2)));
    EXPECT_EQ(h.summary().count(), 4u);
    EXPECT_DOUBLE_EQ(h.summary().max(), 42.0);
}

TEST(TimeSeriesSampler, PeriodSemantics)
{
    TimeSeriesSampler s(100);
    EXPECT_TRUE(s.enabled());
    // The first sample is due at one full period, not at t=0.
    EXPECT_EQ(s.nextDue(), 100u);
    EXPECT_FALSE(s.due(99));
    EXPECT_TRUE(s.due(100));

    TimeSample t;
    t.when = 105;
    s.record(t);
    EXPECT_EQ(s.nextDue(), 200u);

    // A long edge-free gap yields ONE catch-up sample, then the due
    // time advances past the recorded point.
    t.when = 730;
    s.record(t);
    EXPECT_EQ(s.samples().size(), 2u);
    EXPECT_EQ(s.nextDue(), 800u);

    TimeSeriesSampler off(0);
    EXPECT_FALSE(off.enabled());
    EXPECT_EQ(off.nextDue(), TimeSeriesSampler::never);
    EXPECT_FALSE(off.due(1'000'000));
}

TEST(TraceExport, ChromeJsonIsWellFormedAndDeterministic)
{
    auto build = [] {
        obs::TraceExporter exp(true);
        exp.complete("PLL re-lock", "dvfs", 1, 1'000'000, 15'000'000);
        exp.instant("request INT", "control", 1, 2'500'000,
                    "\"mhz\": 800");
        exp.counter("INT frequency", "MHz", 1, 2'500'000, 800.0);
        return exp;
    };
    obs::TraceExporter exp = build();
    ASSERT_EQ(exp.size(), 3u);

    std::ostringstream os;
    obs::writeChromeTrace(os, {{"adpcm/online", &exp}});
    std::string text = os.str();
    expectBalancedJson(text);
    for (const char *key :
         {"\"traceEvents\"", "\"process_name\"", "\"thread_name\"",
          "\"adpcm/online\"", "\"PLL re-lock\"", "\"ph\": \"X\"",
          "\"ph\": \"i\"", "\"ph\": \"C\"", "\"pid\": 1,",
          "\"mhz\": 800"}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }

    // Bit-identical on rebuild: no wall clock, host pid, or pointers.
    obs::TraceExporter exp2 = build();
    std::ostringstream os2;
    obs::writeChromeTrace(os2, {{"adpcm/online", &exp2}});
    EXPECT_EQ(text, os2.str());

    // A disabled exporter records nothing.
    obs::TraceExporter offExp(false);
    offExp.instant("x", "y", 0, 1);
    EXPECT_EQ(offExp.size(), 0u);
}

TEST(StatsRegistry, JsonOutputIsWellFormed)
{
    StatsRegistry reg;
    reg.counter("a.count", "a counter").inc(7);
    reg.gauge("b.value").set(2.5);
    Histogram &h = reg.histogram("c.hist", {1.0});
    h.add(0.25);
    h.add(9.0);

    std::ostringstream os;
    json::Writer w(os);
    reg.writeJson(w);
    std::string text = os.str();
    expectBalancedJson(text);
    for (const char *key :
         {"\"a.count\": 7", "\"b.value\": 2.5", "\"buckets\"",
          "\"le\"", "\"count\": 2"}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }
}

/**
 * A Figure 8-style frequency series from the telemetry sampler agrees
 * with an oracle that never reads the sampler: the run loop's
 * per-edge FreqAccumulator summary in RunResult::domains.
 *
 * Minimum and maximum match exactly: both start from the initial
 * frequency, and every frequency the engine applies is in force at
 * the next edge of its domain. The average differs by attribution
 * only. The per-edge sum weights the interval before an edge with the
 * frequency in force after it, so each of the n change points moves
 * by less than one period of the slowest clock, T = 1/f_min; and its
 * window runs from the first to the last edge, not from 0 to
 * execTime, which moves each end by less than T too. Moving a
 * duration δ between two frequencies shifts a time-weighted mean by
 * at most δ (f_max - f_min) / span, hence the tolerance
 * (n + 2) T (f_max - f_min) / execTime.
 */
TEST(Telemetry, FreqTraceMatchesPerEdgeSummary)
{
    Program p = workloads::build("adpcm", 1);

    ReconfigSchedule sched;
    sched.add(fromMicroseconds(5.0), Domain::Integer, 600e6);
    sched.add(fromMicroseconds(5.0), Domain::FloatingPoint, 300e6);
    sched.add(fromMicroseconds(30.0), Domain::Integer, 1e9);
    sched.add(fromMicroseconds(40.0), Domain::LoadStore, 450e6);

    SimConfig cfg;
    cfg.clocking = ClockingStyle::Mcd;
    cfg.dvfs = DvfsKind::XScale;    // smooth ramps: many trace points
    cfg.dvfsTimeScale = 0.2;
    cfg.schedule = &sched;
    cfg.telemetry.freqSeries = true;
    cfg.maxInstructions = 60000;

    RunResult r = McdProcessor(cfg, p).run();
    ASSERT_NE(r.telemetry, nullptr);

    const DvfsTable table;
    const Hertz fMin = table.minFrequency();
    const Hertz fMax = table.maxFrequency();
    const double periodPs = 1e12 / fMin;
    std::size_t points = 0;
    for (int d = 0; d < numDomains; ++d) {
        const Domain dom = static_cast<Domain>(d);
        const auto &series = r.telemetry->sampler().frequencyTrace(dom);
        const DomainSummary &oracle = r.domains[d];
        obs::FreqAccumulator fromSeries = obs::FreqAccumulator::fromSeries(
            fMax, series, 0, r.execTime);
        EXPECT_DOUBLE_EQ(fromSeries.minimum(), oracle.minFrequency)
            << domainName(dom);
        EXPECT_DOUBLE_EQ(fromSeries.maximum(), oracle.maxFrequency)
            << domainName(dom);
        const double tolerance = static_cast<double>(series.size() + 2) *
            periodPs * (fMax - fMin) / static_cast<double>(r.execTime);
        EXPECT_NEAR(fromSeries.average(), oracle.avgFrequency, tolerance)
            << domainName(dom);
        points += series.size();
    }
    // The schedule must actually have produced frequency activity.
    EXPECT_GT(points, 4u);
    EXPECT_GT(r.domains[domainIndex(Domain::Integer)].reconfigurations,
              0u);
}

TEST(Telemetry, ProcessorCollectsStatsSamplesAndEvents)
{
    Program p = workloads::build("adpcm", 1);

    ReconfigSchedule sched;
    sched.add(fromMicroseconds(5.0), Domain::Integer, 500e6);

    SimConfig cfg;
    cfg.clocking = ClockingStyle::Mcd;
    cfg.dvfs = DvfsKind::Transmeta;     // exercises re-lock windows
    cfg.dvfsTimeScale = 0.2;
    cfg.schedule = &sched;
    cfg.telemetry = obs::TelemetryConfig::full(fromMicroseconds(2.0));
    cfg.maxInstructions = 60000;

    RunResult r = McdProcessor(cfg, p).run();
    ASSERT_NE(r.telemetry, nullptr);
    const obs::Telemetry &t = *r.telemetry;

    // Periodic samples cover the run at the configured period.
    ASSERT_FALSE(t.sampler().samples().empty());
    for (const TimeSample &s : t.sampler().samples()) {
        for (int d = 0; d < numDomains; ++d) {
            EXPECT_GT(s.frequency[d], 0.0);
            EXPECT_GT(s.voltage[d], 0.0);
            EXPECT_GE(s.occupancy[d], 0.0);
            EXPECT_LE(s.occupancy[d], 1.0);
        }
    }
    // Cumulative energy never decreases.
    const auto &samples = t.sampler().samples();
    for (std::size_t i = 1; i < samples.size(); ++i) {
        for (int d = 0; d < numDomains; ++d)
            EXPECT_GE(samples[i].energy[d], samples[i - 1].energy[d]);
    }

    // The schedule dropped INT: hook-driven counters saw it.
    const auto *fc = t.stats().find("clock.int.freq_changes");
    ASSERT_NE(fc, nullptr);
    EXPECT_GT(std::get<Counter>(fc->stat).value(), 0u);
    const auto *rw = t.stats().find("clock.int.relock_windows");
    ASSERT_NE(rw, nullptr);
    EXPECT_GT(std::get<Counter>(rw->stat).value(), 0u);

    // Controller decisions and end-of-run summaries are registered.
    const auto *dec = t.stats().find("control.int.requests");
    ASSERT_NE(dec, nullptr);
    EXPECT_GT(std::get<Counter>(dec->stat).value(), 0u);
    EXPECT_NE(t.stats().find("run.committed"), nullptr);
    EXPECT_NE(t.stats().find("domain.int.avg_mhz"), nullptr);
    EXPECT_NE(t.stats().find("pipeline.sync.commit_stalls"), nullptr);
    EXPECT_NE(t.stats().find("control.schedule.requests_issued"),
              nullptr);

    // Trace events were collected (re-lock windows at minimum).
    EXPECT_GT(t.trace().size(), 0u);
}

/**
 * The stats document owns its number format: a gauge comes out at
 * full round-trip precision even into a freshly constructed stream
 * (default precision 6), matching the results document.
 */
TEST(Telemetry, StatsDocumentWritesGaugesAtFullPrecision)
{
    StatsRegistry matrix;
    matrix.gauge("run.energy_j").set(270155160.5);
    matrix.gauge("ratio").set(0.1);

    std::ostringstream os;
    writeTelemetryStatsJson(os, {}, &matrix);
    std::string text = os.str();
    expectBalancedJson(text);
    EXPECT_NE(text.find("\"run.energy_j\": 270155160.5"),
              std::string::npos) << text;
    EXPECT_NE(text.find("\"ratio\": 0.10000000000000001"),
              std::string::npos) << text;
}

/**
 * Matrix integration: identical telemetry output for serial and
 * parallel execution, and across repeated runs (no wall-clock, host
 * pid, pointer, or scheduling dependence anywhere in the documents).
 */
TEST(Telemetry, MatrixTelemetryIsDeterministicAcrossJobCounts)
{
    ExperimentConfig ec;
    ec.telemetry = obs::TelemetryConfig::full(fromMicroseconds(5.0));
    // No cacheDir: caching off, every leg really runs.

    auto render = [&](int jobs) {
        std::vector<BenchmarkResults> rows =
            runMatrix(ec, {"adpcm"}, jobs);
        std::vector<NamedRun> named = namedRuns(rows);
        std::ostringstream stats, trace;
        writeTelemetryStatsJson(stats, named);
        writeTelemetryTrace(trace, named);
        return stats.str() + "\n===\n" + trace.str();
    };

    std::string serial = render(1);
    std::string parallel = render(3);
    std::string repeat = render(3);
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(parallel, repeat);

    expectBalancedJson(serial.substr(0, serial.find("\n===\n")));
    for (const char *key :
         {"\"adpcm/baseline\"", "\"adpcm/online\"", "\"merged\"",
          "\"run.committed\""}) {
        EXPECT_NE(serial.find(key), std::string::npos) << key;
    }
}

/**
 * Trace process naming is driven by the leg names: a tournament
 * matrix (every zoo controller plus the oracle) must give each leg
 * its own distinctly named trace process, with the whole document
 * byte-identical at jobs=1 and jobs=8.
 */
TEST(Telemetry, TournamentTraceProcessNamesAreUniqueAndDeterministic)
{
    ExperimentConfig ec;
    ec.telemetry.traceEvents = true;
    ec.legs = tournamentLegs(ec);
    ASSERT_GE(ec.legs.size(), 6u);

    auto render = [&](int jobs) {
        std::vector<BenchmarkResults> rows =
            runMatrix(ec, {"adpcm"}, jobs);
        std::ostringstream os;
        writeTelemetryTrace(os, namedRuns(rows));
        return os.str();
    };
    std::string serial = render(1);
    EXPECT_EQ(serial, render(8));

    // One process_name record per run, and no two runs share a name.
    std::vector<std::string> names;
    const std::string tag = "\"process_name\"";
    for (std::size_t p = serial.find(tag); p != std::string::npos;
         p = serial.find(tag, p + 1)) {
        std::size_t np = serial.find("\"name\": \"", p);
        ASSERT_NE(np, std::string::npos);
        np += 9;
        names.push_back(serial.substr(np, serial.find('"', np) - np));
    }
    // baseline + mcdBaseline + every tournament leg.
    ASSERT_EQ(names.size(), ec.legs.size() + 2);
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()),
              names.end())
        << "duplicate trace process name";
    EXPECT_NE(std::find(names.begin(), names.end(), "adpcm/dyn5"),
              names.end());
}

TEST(StatsRegistry, HistogramJsonCarriesPercentiles)
{
    StatsRegistry reg;
    Histogram &h = reg.histogram("lat", {1.0, 2.0, 4.0});
    for (double v : {0.5, 1.5, 1.6, 1.7, 2.5, 3.0, 3.5, 3.9, 3.95, 3.99})
        h.add(v);
    // p50 falls in the (2, 4] bucket: 4 of 10 at or below 2.0, the
    // interpolated point sits 1/6 into the bucket's [2, 4] span.
    EXPECT_NEAR(h.quantile(0.5), 2.0 + (5.0 - 4.0) / 6.0 * 2.0, 1e-12);
    // Quantiles never escape the observed range.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.99);
    // Empty histogram: percentiles render as null, not NaN.
    reg.histogram("empty", {1.0});

    std::ostringstream os;
    json::Writer w(os);
    reg.writeJson(w);
    std::string text = os.str();
    expectBalancedJson(text);
    for (const char *key : {"\"p50\"", "\"p90\"", "\"p99\""})
        EXPECT_NE(text.find(key), std::string::npos) << key;
    EXPECT_NE(text.find("\"p50\": null"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(StatsRegistry, MergeRejectsMismatchedHistogramBounds)
{
    StatsRegistry a;
    a.histogram("h", {1.0, 2.0}).add(0.5);
    StatsRegistry b;
    b.histogram("h", {1.0, 3.0}).add(0.5);
    EXPECT_THROW(a.merge(b), FatalError);

    // Same name, same bounds still merges; absent-here entries adopt
    // the other's bounds.
    StatsRegistry c;
    c.histogram("h", {1.0, 2.0}).add(1.5);
    c.histogram("only_c", {9.0}).add(1.0);
    a.merge(c);
    EXPECT_EQ(a.histogram("h", {1.0, 2.0}).summary().count(), 2u);
    EXPECT_EQ(a.histogram("only_c", {9.0}).summary().count(), 1u);
}

TEST(Telemetry, ResultsJsonCarriesStatsWhenEnabled)
{
    ExperimentConfig ec;
    ec.telemetry.samplePeriod = fromMicroseconds(10.0);

    std::vector<BenchmarkResults> rows = runMatrix(ec, {"adpcm"}, 1);
    std::ostringstream os;
    writeResultsJson(os, ec, rows);
    std::string text = os.str();
    expectBalancedJson(text);
    EXPECT_NE(text.find("\"stats\""), std::string::npos);
    EXPECT_NE(text.find("\"run.ipc\""), std::string::npos);
}

} // namespace
} // namespace mcd
