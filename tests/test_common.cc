/**
 * @file
 * Tests for src/common: RNG and FNV-1a, stats helpers, logging, types,
 * the JSON writer, and the spec toolkit every text grammar parses
 * through.
 */

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "common/ring_buffer.hh"
#include "common/spec.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/inst_window.hh"

namespace mcd {
namespace {

TEST(Types, PeriodConversion)
{
    EXPECT_DOUBLE_EQ(periodPs(1e9), 1000.0);
    EXPECT_DOUBLE_EQ(periodPs(250e6), 4000.0);
    EXPECT_DOUBLE_EQ(toSeconds(1'000'000'000'000ULL), 1.0);
    EXPECT_EQ(fromSeconds(1e-6), 1'000'000ULL);
    EXPECT_EQ(fromMicroseconds(15.0), 15'000'000ULL);
}

TEST(Types, DomainNames)
{
    EXPECT_STREQ(domainName(Domain::FrontEnd), "front-end");
    EXPECT_STREQ(domainShortName(Domain::Integer), "INT");
    EXPECT_STREQ(domainShortName(Domain::FloatingPoint), "FP");
    EXPECT_STREQ(domainShortName(Domain::LoadStore), "LS");
    EXPECT_EQ(numDomains, 4);
    EXPECT_EQ(domainIndex(Domain::LoadStore), 3);
}

TEST(Types, ScalableDomainsExcludeFrontEnd)
{
    for (Domain d : scalableDomains)
        EXPECT_NE(d, Domain::FrontEnd);
    EXPECT_EQ(std::size(scalableDomains), 3u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
    }
}

TEST(Rng, UniformRangeBounds)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double v = r.uniformRange(-3.0, 5.0);
        ASSERT_GE(v, -3.0);
        ASSERT_LT(v, 5.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng r(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = r.uniformInt(10);
        ASSERT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NormalMoments)
{
    Rng r(13);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double v = r.normal(5.0, 2.0);
        sum += v;
        sq += v * v;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, NormalClampedRespectsBounds)
{
    Rng r(17);
    for (int i = 0; i < 100000; ++i) {
        double v = r.normalClamped(0.0, 110.0, 3.0);
        ASSERT_GE(v, -330.0);
        ASSERT_LE(v, 330.0);
    }
}

TEST(RngStreams, SplitmixIsDeterministicAndAdvancesState)
{
    std::uint64_t s1 = 42, s2 = 42;
    std::uint64_t a = splitmix64(s1);
    std::uint64_t b = splitmix64(s2);
    EXPECT_EQ(a, b);
    EXPECT_NE(s1, 42u);         // state advanced
    EXPECT_NE(splitmix64(s1), a);
}

TEST(RngStreams, NamedStreamsAreIndependent)
{
    // Different stream names from one root must decorrelate; the
    // same (root, name) pair must be stable across calls.
    std::uint64_t root = 7;
    EXPECT_EQ(streamSeed(root, "fuzz.data"),
              streamSeed(root, "fuzz.data"));
    EXPECT_NE(streamSeed(root, "fuzz.data"),
              streamSeed(root, "fuzz.checksum"));
    EXPECT_NE(streamSeed(root, "fuzz.data"),
              streamSeed(root + 1, "fuzz.data"));

    std::set<std::uint64_t> seeds;
    for (std::uint64_t r = 0; r < 100; ++r)
        for (const char *name : {"a", "b", "c"})
            seeds.insert(streamSeed(r, name));
    EXPECT_EQ(seeds.size(), 300u);
}

TEST(RngStreams, IndexedStreamsDecorrelate)
{
    std::uint64_t root = 11;
    EXPECT_EQ(streamSeedAt(root, "fuzz.workload", 3),
              streamSeedAt(root, "fuzz.workload", 3));
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seeds.insert(streamSeedAt(root, "fuzz.workload", i));
    EXPECT_EQ(seeds.size(), 1000u);

    // Adjacent indices must not produce correlated draws downstream.
    Rng a(streamSeedAt(root, "s", 0));
    Rng b(streamSeedAt(root, "s", 1));
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(RngStreams, StreamRngMatchesManualSeeding)
{
    Rng a = streamRng(5, "telemetry.jitter");
    Rng b(streamSeed(5, "telemetry.jitter"));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngStreams, Fnv1aAndStreamSeedsArePinned)
{
    // Pinned from before fnv1a was factored out of its four copies:
    // cache checksums and file names, fuzz workload names, soak
    // digests and every stream draw depend on these bits. The offset
    // basis is the tree's own (see random.hh), so these are not the
    // published FNV-1a vectors.
    EXPECT_EQ(fnv1a(""), 1469598103934665603ULL);
    EXPECT_EQ(fnv1a("a"), 4953267810257967366ULL);
    EXPECT_EQ(fnv1a("foobar"), 9870438755804841970ULL);
    EXPECT_EQ(streamSeed(7, "fuzz.data"), 0x6bd5a98034d4e8baULL);
    EXPECT_EQ(streamSeedAt(11, "fuzz.workload", 3), 0xf560287b2f547c61ULL);
}

TEST(RunningStat, Basics)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    s.add(1.0);
    s.add(2.0);
    s.add(3.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_FALSE(s.empty());
    EXPECT_DOUBLE_EQ(s.sum(), 6.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(RunningStat, EmptyExtremaAreNaN)
{
    // 0.0 is a valid observed value, so an empty series must not
    // report it as an extremum.
    RunningStat s;
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
    s.add(-2.5);
    EXPECT_DOUBLE_EQ(s.min(), -2.5);
    EXPECT_DOUBLE_EQ(s.max(), -2.5);
    s.reset();
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
}

TEST(RunningStat, Merge)
{
    RunningStat a;
    a.add(1.0);
    a.add(5.0);
    RunningStat b;
    b.add(-3.0);

    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 3.0);
    EXPECT_DOUBLE_EQ(a.min(), -3.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);

    // Merging an empty shard changes nothing; merging into an empty
    // shard adopts the other's extrema.
    RunningStat empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.min(), -3.0);

    RunningStat c;
    c.merge(a);
    EXPECT_EQ(c.count(), 3u);
    EXPECT_DOUBLE_EQ(c.min(), -3.0);
    EXPECT_DOUBLE_EQ(c.max(), 5.0);
}

TEST(Format, Percent)
{
    EXPECT_EQ(formatPercent(0.123), "12.3%");
    EXPECT_EQ(formatPercent(-0.05, 0), "-5%");
    EXPECT_EQ(formatPercent(0.2001, 2), "20.01%");
}

TEST(Format, MHz)
{
    EXPECT_EQ(formatMHz(1e9), "1000 MHz");
    EXPECT_EQ(formatMHz(250e6), "250 MHz");
}

TEST(Format, Time)
{
    EXPECT_EQ(formatTime(500), "500 ps");
    EXPECT_EQ(formatTime(1'500), "1.50 ns");
    EXPECT_EQ(formatTime(2'500'000), "2.50 us");
    EXPECT_EQ(formatTime(3'000'000'000ULL), "3.000 ms");
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.header({"a", "bbbb"});
    t.row({"xx", "y"});
    std::string out = t.render();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("xx"), std::string::npos);
    // Header separator exists.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Log, FatalThrows)
{
    EXPECT_THROW(fatal("boom"), FatalError);
}

TEST(Log, PanicThrows)
{
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(Log, AssertHelper)
{
    EXPECT_NO_THROW(mcdAssert(true, "fine"));
    EXPECT_THROW(mcdAssert(false, "nope"), PanicError);
}

TEST(RingDeque, FifoOrderAcrossWraparound)
{
    RingDeque<int> q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 4u);

    // Cycle through the ring several times its capacity: the FIFO
    // order must hold across every wraparound, with no growth.
    int nextPush = 0;
    int nextPop = 0;
    for (int round = 0; round < 5; ++round) {
        while (q.size() < 3)
            q.push_back(nextPush++);
        EXPECT_EQ(q.front(), nextPop);
        EXPECT_EQ(q.back(), nextPush - 1);
        for (std::size_t i = 0; i < q.size(); ++i)
            EXPECT_EQ(q[i], nextPop + static_cast<int>(i));
        while (!q.empty()) {
            EXPECT_EQ(q.front(), nextPop++);
            q.pop_front();
        }
    }
    EXPECT_EQ(q.grows(), 0u);
    EXPECT_EQ(q.capacity(), 4u);
}

TEST(RingDeque, GrowthIsCountedAndPreservesOrder)
{
    RingDeque<int> q(2);
    // Mis-align head so growth has to re-lay a wrapped span.
    q.push_back(-1);
    q.pop_front();
    for (int i = 0; i < 10; ++i)
        q.push_back(i);
    EXPECT_GT(q.grows(), 0u);
    EXPECT_GE(q.capacity(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }

    // reserve() never counts as a growth.
    RingDeque<int> r;
    r.reserve(16);
    for (int i = 0; i < 16; ++i)
        r.push_back(i);
    EXPECT_EQ(r.grows(), 0u);
}

TEST(RingDeque, ClearRewindsWithoutShrinking)
{
    RingDeque<int> q(4);
    q.push_back(1);
    q.push_back(2);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 4u);
    q.push_back(7);
    EXPECT_EQ(q.front(), 7);
    EXPECT_EQ(q.back(), 7);
}

TEST(InstWindow, StableAddressesAndHighWater)
{
    InstWindow w(4);
    EXPECT_EQ(w.capacity(), 4u);

    DynInst *a = w.emplace_back();
    DynInst *b = w.emplace_back();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(a, b);
    // Slots arrive reset, with the cold record bound.
    ASSERT_NE(a->cold, nullptr);
    ASSERT_NE(a->cold, b->cold);
    a->cold->issueTime = 0x1234;

    // Addresses stay stable while the instruction is in flight, and
    // slots recycle after pop_front without invalidating the rest.
    w.pop_front();                      // retire a
    DynInst *c = w.emplace_back();
    DynInst *d = w.emplace_back();
    EXPECT_EQ(w.size(), 3u);
    EXPECT_EQ(&w.front(), b);
    EXPECT_NE(c, b);
    EXPECT_NE(d, b);

    EXPECT_EQ(w.highWater(), 3u);       // never held more than 3
    w.emplace_back();
    EXPECT_EQ(w.highWater(), 4u);

    // Overflow past the structural bound is a panic, not a resize:
    // DynInst* stability is the whole point of the arena.
    EXPECT_THROW(w.emplace_back(), PanicError);
}

TEST(InstWindow, RecycledSlotsAreReset)
{
    InstWindow w(2);
    DynInst *a = w.emplace_back();
    a->cold->src1Producer = 99;
    a->cold->memFixedLat = 7;
    a->seq = 42;
    a->issued = true;
    w.pop_front();
    // The same physical slot comes back clean.
    DynInst *b = w.emplace_back();
    EXPECT_EQ(b, a);
    EXPECT_EQ(b->cold->src1Producer, 0u);
    EXPECT_EQ(b->cold->memFixedLat, 0u);
    EXPECT_EQ(b->seq, 0u);
    EXPECT_FALSE(b->issued);
    w.pop_front();
    EXPECT_TRUE(w.empty());
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlBytes)
{
    EXPECT_EQ(json::quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    EXPECT_EQ(json::quote(std::string_view("\x01", 1)), "\"\\u0001\"");
    EXPECT_EQ(json::quote(""), "\"\"");
    for (int c = 0; c < 0x20; ++c) {
        std::string want;
        switch (c) {
          case '\n': want = "\\n"; break;
          case '\r': want = "\\r"; break;
          case '\t': want = "\\t"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            want = buf;
          }
        }
        EXPECT_EQ(json::quote(std::string(1, static_cast<char>(c))),
                  "\"" + want + "\"")
            << "byte " << c;
    }
    // Bytes from 0x20 up, UTF-8 included, pass through untouched.
    EXPECT_EQ(json::quote(" ~\x7f\xc3\xa9"), "\" ~\x7f\xc3\xa9\"");
    // Keys are escaped like values.
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject(json::Inline).field("k\"", "v\\").endObject();
    EXPECT_EQ(os.str(), "{\"k\\\"\": \"v\\\\\"}");
}

TEST(JsonWriter, PrettyAndInlineNesting)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().field("name", "adpcm").field("n", 3);
    w.key("inner").beginObject().field("ok", true).field("off", false);
    w.key("row").beginArray(json::Inline);
    w.beginObject(json::Inline).field("a", 1).field("b", 2)
        .endObject();
    w.value(std::uint64_t{18446744073709551615ULL}).value(-4);
    w.endArray().endObject();
    w.key("list").beginArray().value("x").value("y").endArray();
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"name\": \"adpcm\",\n"
              "  \"n\": 3,\n"
              "  \"inner\": {\n"
              "    \"ok\": true,\n"
              "    \"off\": false,\n"
              "    \"row\": [{\"a\": 1, \"b\": 2}, "
              "18446744073709551615, -4]\n"
              "  },\n"
              "  \"list\": [\n"
              "    \"x\",\n"
              "    \"y\"\n"
              "  ]\n"
              "}");
}

TEST(JsonWriter, EmptyContainers)
{
    // An empty pretty container closes on its own line at the
    // container's indentation; an empty inline one stays "{}".
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject();
    w.key("pretty").beginObject().endObject();
    w.key("list").beginArray().endArray();
    w.key("inline").beginObject(json::Inline).endObject();
    w.key("row").beginArray(json::Inline).endArray();
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"pretty\": {\n"
              "  },\n"
              "  \"list\": [\n"
              "  ],\n"
              "  \"inline\": {},\n"
              "  \"row\": []\n"
              "}");

    std::ostringstream top;
    json::Writer(top).beginObject().endObject();
    EXPECT_EQ(top.str(), "{\n}");
}

TEST(JsonWriter, NumbersRoundTripAndNonFiniteIsNull)
{
    EXPECT_EQ(json::number(0.1), "0.10000000000000001");
    EXPECT_EQ(json::number(270155160.5), "270155160.5");
    EXPECT_EQ(json::number(1e6), "1000000");
    EXPECT_EQ(json::number(-0.0), "-0");
    EXPECT_EQ(json::number(1e300), "1.0000000000000001e+300");
    EXPECT_EQ(json::number(std::nan("")), "null");
    EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity()),
              "null");

    // The stream's own formatting state never leaks in.
    std::ostringstream os;
    os.precision(3);
    json::Writer w(os);
    w.beginArray(json::Inline).value(2.0 / 3.0)
        .value(std::nan("")).endArray();
    EXPECT_EQ(os.str(), "[0.66666666666666663, null]");

    EXPECT_EQ(json::fixedPoint(10'000'837, 6), "10.000837");
    EXPECT_EQ(json::fixedPoint(5, 6), "0.000005");
    EXPECT_EQ(json::fixedPoint(0, 6), "0.000000");
}

TEST(JsonWriter, RawTokensAndPreRenderedMembers)
{
    // Already-canonical tokens (shortest round-trip config values)
    // pass through verbatim, unlike value(double).
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject(json::Inline).key("dilation").raw("0.05")
        .key("args").raw("{" + json::member("mhz", json::number(800)) +
                         "}")
        .field("measured", 0.05).endObject();
    EXPECT_EQ(os.str(), "{\"dilation\": 0.05, \"args\": {\"mhz\": 800}, "
                        "\"measured\": 0.050000000000000003}");
    EXPECT_EQ(json::member("a\"b", "1"), "\"a\\\"b\": 1");
}

TEST(JsonWriter, UnbalancedCloseIsABug)
{
    std::ostringstream os;
    json::Writer w(os);
    EXPECT_THROW(w.endObject(), PanicError);
    json::Writer dangling(os);
    dangling.beginObject().key("k");
    EXPECT_THROW(dangling.endObject(), PanicError);
}

TEST(SpecToolkit, SplitDropsEmptyItemsAndKeepsOrder)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(spec::split("a,b,c", ','), (V{"a", "b", "c"}));
    EXPECT_EQ(spec::split(",a,,b,", ','), (V{"a", "b"}));
    EXPECT_EQ(spec::split("", ','), V{});
    EXPECT_EQ(spec::split(";;;", ';'), V{});
    EXPECT_EQ(spec::split("a b|c", '|'), (V{"a b", "c"}));
}

TEST(SpecToolkit, TrimStripsOuterWhitespaceOnly)
{
    EXPECT_EQ(spec::trim("  a b \t\r\n"), "a b");
    EXPECT_EQ(spec::trim(" \t "), "");
    EXPECT_EQ(spec::trim("x"), "x");
}

TEST(SpecToolkit, KeyValueSplitsAtFirstEqualsAndNamesTheGrammar)
{
    auto kv = spec::keyValue("G", "sampling=detailed=1,ff=2");
    EXPECT_EQ(kv.first, "sampling");
    EXPECT_EQ(kv.second, "detailed=1,ff=2");
    for (const char *bad : {"", "k", "=v", "k=", "="}) {
        try {
            spec::keyValue("MYGRAMMAR", bad);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("MYGRAMMAR"),
                      std::string::npos) << e.what();
        }
    }
}

TEST(SpecToolkit, NumbersAreWholeTokenInRangeAndFinite)
{
    EXPECT_EQ(spec::parseInt("n", "-42"), -42);
    EXPECT_EQ(spec::parseInt("n", "7", 1, 64), 7);
    EXPECT_EQ(spec::parseU64("n", "18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_DOUBLE_EQ(spec::parseDouble("n", "0.05"), 0.05);
    EXPECT_DOUBLE_EQ(spec::parseDouble("n", "-2.5e-3"), -2.5e-3);
    EXPECT_DOUBLE_EQ(spec::parseDouble("n", "32"), 32.0);

    for (const char *bad : {"", " 1", "1 ", "+1", "0x10", "1x", "1.5",
                            "99999999999999999999"})
        EXPECT_THROW(spec::parseInt("n", bad), FatalError) << bad;
    EXPECT_THROW(spec::parseInt("n", "0", 1, 64), FatalError);
    EXPECT_THROW(spec::parseInt("n", "65", 1, 64), FatalError);
    for (const char *bad : {"", "-1", "+5", " 5", "0x10",
                            "18446744073709551616"})
        EXPECT_THROW(spec::parseU64("n", bad), FatalError) << bad;
    for (const char *bad : {"", " 1", "1 ", "+1", "0x10", "inf", "-inf",
                            "nan", "1e999", "1.0.0", "0.5x"})
        EXPECT_THROW(spec::parseDouble("n", bad), FatalError) << bad;
}

} // namespace
} // namespace mcd
