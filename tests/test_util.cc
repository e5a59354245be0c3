/**
 * @file
 * Unit tests for the util module: saturating counters, RNG, DOLC
 * history hashing, statistics, the metrics registry, and the table
 * printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/dolc.hh"
#include "util/fixed_ring.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/sat_counter.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/types.hh"

using namespace sfetch;

// ---- types ----

TEST(Types, InstByteConversions)
{
    EXPECT_EQ(instsToBytes(0), 0u);
    EXPECT_EQ(instsToBytes(5), 20u);
    EXPECT_EQ(bytesToInsts(20), 5u);
    EXPECT_EQ(bytesToInsts(instsToBytes(123456)), 123456u);
}

// ---- SatCounter ----

TEST(SatCounter, StartsAtInitialValue)
{
    SatCounter c(2, 1);
    EXPECT_EQ(c.value(), 1);
    EXPECT_FALSE(c.taken());
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3);
    EXPECT_TRUE(c.taken());
    EXPECT_TRUE(c.isSaturated());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0);
    EXPECT_FALSE(c.taken());
    EXPECT_TRUE(c.isSaturated());
}

TEST(SatCounter, TakenThresholdIsMsb)
{
    SatCounter c(2, 0);
    c.increment();
    EXPECT_FALSE(c.taken()); // 1 < 2
    c.increment();
    EXPECT_TRUE(c.taken());  // 2 >= 2
}

TEST(SatCounter, UpdateMovesTowardOutcome)
{
    SatCounter c(2, 2);
    c.update(false);
    EXPECT_EQ(c.value(), 1);
    c.update(true);
    EXPECT_EQ(c.value(), 2);
}

class SatCounterWidth : public ::testing::TestWithParam<unsigned>
{};

TEST_P(SatCounterWidth, MaxValueMatchesWidth)
{
    unsigned bits = GetParam();
    SatCounter c(bits, 0);
    EXPECT_EQ(c.maxValue(), (1u << bits) - 1);
    for (unsigned i = 0; i < (1u << bits) + 5; ++i)
        c.increment();
    EXPECT_EQ(c.value(), c.maxValue());
    // Threshold at half range.
    SatCounter d(bits, std::uint8_t((1u << (bits - 1)) - 1));
    EXPECT_FALSE(d.taken());
    d.increment();
    EXPECT_TRUE(d.taken());
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u));

// ---- Pcg32 ----

TEST(Pcg32, Deterministic)
{
    Pcg32 a(42, 7), b(42, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, StreamsDiffer)
{
    Pcg32 a(42, 1), b(42, 2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= (a.next() != b.next());
    EXPECT_TRUE(any_diff);
}

TEST(Pcg32, BoundedStaysInRange)
{
    Pcg32 r(1);
    for (int i = 0; i < 1000; ++i) {
        std::uint32_t v = r.nextBounded(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Pcg32, RangeInclusive)
{
    Pcg32 r(2);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v = r.nextRange(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all values reachable
}

TEST(Pcg32, BernoulliFrequency)
{
    Pcg32 r(3);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.nextBool(0.3);
    double freq = double(hits) / n;
    EXPECT_NEAR(freq, 0.3, 0.02);
}

TEST(Pcg32, GeometricMeanApproximatesTarget)
{
    Pcg32 r(4);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.nextGeometric(6.0, 1000);
    EXPECT_NEAR(sum / n, 6.0, 0.5);
}

TEST(Pcg32, GeometricRespectsMax)
{
    Pcg32 r(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LE(r.nextGeometric(50.0, 8), 8u);
}

TEST(Pcg32, DoubleInUnitInterval)
{
    Pcg32 r(6);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Mix64, InjectiveOnSmallDomain)
{
    std::set<std::uint64_t> outs;
    for (std::uint64_t i = 0; i < 4096; ++i)
        outs.insert(mix64(i));
    EXPECT_EQ(outs.size(), 4096u);
}

// ---- DolcHistory ----

TEST(Dolc, EmptyHistoryIndexDependsOnCurrentOnly)
{
    DolcHistory h(DolcSpec{12, 2, 4, 10});
    std::uint64_t i1 = h.index(0x1000, 11);
    std::uint64_t i2 = h.index(0x1004, 11);
    EXPECT_NE(i1, i2);
    EXPECT_LT(i1, 1ull << 11);
}

TEST(Dolc, PathChangesIndex)
{
    DolcHistory a(DolcSpec{12, 2, 4, 10});
    DolcHistory b(DolcSpec{12, 2, 4, 10});
    a.push(0x2000);
    b.push(0x2004);
    EXPECT_NE(a.index(0x1000, 11), b.index(0x1000, 11));
}

TEST(Dolc, DeterministicForSamePath)
{
    DolcHistory a(DolcSpec{9, 4, 7, 9});
    DolcHistory b(DolcSpec{9, 4, 7, 9});
    for (Addr p = 0x4000; p < 0x4040; p += 4) {
        a.push(p);
        b.push(p);
    }
    EXPECT_EQ(a.index(0x5000, 10), b.index(0x5000, 10));
    EXPECT_EQ(a.signature(0x5000), b.signature(0x5000));
}

TEST(Dolc, DepthLimitsMemory)
{
    // Elements older than `depth` must not affect the index.
    DolcSpec spec{4, 2, 4, 10};
    DolcHistory a(spec), b(spec);
    a.push(0xAAAA0);
    b.push(0xBBBB0);
    for (Addr p = 0x1000; p < 0x1000 + 4 * 4; p += 4) {
        a.push(p);
        b.push(p);
    }
    EXPECT_EQ(a.index(0x2000, 11), b.index(0x2000, 11));
}

TEST(Dolc, SaveRestoreRoundTrip)
{
    DolcHistory h(DolcSpec{12, 2, 4, 10});
    h.push(0x100);
    h.push(0x200);
    auto cp = h.save();
    std::uint64_t before = h.index(0x300, 11);
    h.push(0x400);
    EXPECT_NE(h.index(0x300, 11), before);
    h.restore(cp);
    EXPECT_EQ(h.index(0x300, 11), before);
}

TEST(Dolc, CopyFromMatchesSource)
{
    DolcHistory a(DolcSpec{12, 2, 4, 10});
    DolcHistory b(DolcSpec{12, 2, 4, 10});
    a.push(0x10);
    a.push(0x20);
    b.copyFrom(a);
    EXPECT_EQ(a.index(0x30, 11), b.index(0x30, 11));
    EXPECT_EQ(a.size(), b.size());
}

TEST(Dolc, ClearForgetsPath)
{
    DolcHistory h(DolcSpec{12, 2, 4, 10});
    std::uint64_t empty = h.index(0x40, 11);
    h.push(0x1234);
    h.clear();
    EXPECT_EQ(h.index(0x40, 11), empty);
    EXPECT_EQ(h.size(), 0u);
}

TEST(Dolc, IndexFitsWidth)
{
    DolcHistory h(DolcSpec{12, 2, 4, 10});
    for (Addr p = 0; p < 64 * 4; p += 4)
        h.push(p * 37);
    for (unsigned bits : {4u, 8u, 11u, 16u}) {
        EXPECT_LT(h.index(0xdeadbeef & ~3ull, bits), 1ull << bits);
    }
}

// ---- Histogram ----

TEST(Histogram, MeanAndBounds)
{
    Histogram h(16);
    h.sample(2);
    h.sample(4);
    h.sample(6);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    EXPECT_EQ(h.minValue(), 2u);
    EXPECT_EQ(h.maxValue(), 6u);
}

TEST(Histogram, OverflowBucketStillCountsMean)
{
    Histogram h(4);
    h.sample(100);
    EXPECT_EQ(h.bucket(4), 1u); // overflow bucket
    EXPECT_DOUBLE_EQ(h.mean(), 100.0);
}

TEST(Histogram, WeightedSamples)
{
    Histogram h(8);
    h.sample(3, 10);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Histogram, Percentile)
{
    Histogram h(32);
    for (std::uint64_t v = 1; v <= 10; ++v)
        h.sample(v);
    EXPECT_EQ(h.percentile(0.5), 6u);
    EXPECT_GE(h.percentile(0.99), 9u);
}

TEST(Histogram, PercentileOverflowBucketReportsMaxValue)
{
    // Regression: a high percentile landing in the overflow bucket
    // used to report the bucket *index* (the bound), a gross
    // underestimate when samples far exceed it.
    Histogram h(8);
    h.sample(2, 10);
    h.sample(5000, 10); // all in the overflow bucket
    EXPECT_EQ(h.maxValue(), 5000u);
    EXPECT_EQ(h.percentile(0.99), 5000u);
    // Percentiles inside the exact buckets are unaffected.
    EXPECT_EQ(h.percentile(0.25), 2u);
}

TEST(Histogram, PercentileAllInRangeNeverReportsBound)
{
    // With no overflow samples, even frac = 1.0 must report the real
    // maximum, not the overflow bucket index.
    Histogram h(64);
    h.sample(3, 4);
    EXPECT_EQ(h.percentile(1.0), 3u);
}

// ---- FixedRing ----

TEST(FixedRing, FifoOrderAcrossWraparound)
{
    FixedRing<int> r(3); // internal pow2 storage of 4
    for (int round = 0; round < 5; ++round) {
        r.push_back(round * 10 + 1);
        r.push_back(round * 10 + 2);
        r.push_back(round * 10 + 3);
        EXPECT_TRUE(r.full());
        EXPECT_EQ(r.front(), round * 10 + 1);
        EXPECT_EQ(r.back(), round * 10 + 3);
        EXPECT_EQ(r.at(1), round * 10 + 2);
        r.pop_front();
        r.pop_front();
        r.pop_front();
        EXPECT_TRUE(r.empty());
    }
}

// The ROB retires only through pop_front_n and reads through at(i),
// so both are pinned against a std::deque on a ring whose capacity
// (5) is not its storage size (8): bulk pops of every length from 0
// to size(), over enough rounds that the head crosses the storage
// end several times, with front() and every at(i) checked after each.
TEST(FixedRing, BulkPopsAcrossTheWrapMatchADeque)
{
    FixedRing<int> r(5);
    std::deque<int> ref;
    int next = 0;
    std::size_t popped = 0;
    for (int round = 0; round < 12; ++round) {
        while (!r.full()) {
            r.push_back(next);
            ref.push_back(next++);
        }
        ASSERT_EQ(ref.size(), 5u);
        // n runs 0, 1, ..., 5 across the rounds; n == size() empties it.
        const std::size_t n = std::size_t(round) % (ref.size() + 1);
        r.pop_front_n(n);
        ref.erase(ref.begin(), ref.begin() + std::ptrdiff_t(n));
        popped += n;
        ASSERT_EQ(r.size(), ref.size()) << "round " << round;
        EXPECT_EQ(r.empty(), ref.empty());
        if (!ref.empty()) {
            EXPECT_EQ(r.front(), ref.front()) << "round " << round;
        }
        for (std::size_t i = 0; i < ref.size(); ++i)
            EXPECT_EQ(r.at(i), ref[i]) << "round " << round << " at " << i;
    }
    // The head went round the 8-slot storage more than three times.
    EXPECT_GT(popped, 3u * 8u);
}

TEST(FixedRing, PushBackSlotIsInPlace)
{
    FixedRing<int> r(2);
    r.push_back_slot() = 7;
    r.push_back_slot() = 9;
    EXPECT_EQ(r.front(), 7);
    EXPECT_EQ(r.back(), 9);
    EXPECT_TRUE(r.full());
}

TEST(FixedRing, ClearAndCopy)
{
    FixedRing<int> r(4);
    r.push_back(1);
    r.push_back(2);
    FixedRing<int> s(r);
    r.clear();
    EXPECT_TRUE(r.empty());
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s.front(), 1);
    EXPECT_EQ(s.back(), 2);
}

TEST(FixedRing, DolcMemoizedIndexMatchesFreshHistory)
{
    // The DOLC memoization must be invisible: an incrementally
    // updated history and a freshly rebuilt one agree on every index
    // and signature.
    DolcSpec spec{4, 2, 3, 8};
    DolcHistory inc(spec);
    for (int i = 0; i < 12; ++i) {
        inc.push(0x1000 + 16u * i);
        DolcHistory fresh(spec);
        for (int j = std::max(0, i - 3); j <= i; ++j)
            fresh.push(0x1000 + 16u * j);
        EXPECT_EQ(inc.index(0x2000, 8), fresh.index(0x2000, 8));
        EXPECT_EQ(inc.signature(0x2000), fresh.signature(0x2000));
        // Interleave lookups at another pc to stress the cache.
        EXPECT_EQ(inc.index(0x4444, 8), fresh.index(0x4444, 8));
    }
}

TEST(Histogram, ResetClears)
{
    Histogram h(8);
    h.sample(5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, MergeCombinesSameShape)
{
    Histogram a(16), b(16);
    a.sample(2);
    a.sample(4);
    b.sample(4);
    b.sample(10);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_EQ(a.bucket(4), 2u);
    EXPECT_EQ(a.minValue(), 2u);
    EXPECT_EQ(a.maxValue(), 10u);
    // Merging an empty histogram is a no-op.
    a.merge(Histogram(16));
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.minValue(), 2u);
}

TEST(Histogram, MergeRoutesForeignOverflowToOverflow)
{
    // The source's overflow bucket holds samples with no exact
    // value; a wider destination must not mis-file them as exact.
    Histogram narrow(4), wide(128);
    narrow.sample(1000); // lands in narrow's overflow bucket (4)
    wide.merge(narrow);
    EXPECT_EQ(wide.bucket(4), 0u);
    EXPECT_EQ(wide.bucket(128), 1u); // wide's overflow bucket
    EXPECT_DOUBLE_EQ(wide.mean(), 1000.0);

    // And a narrower destination overflows exact source buckets.
    Histogram tiny(2);
    Histogram src(8);
    src.sample(5);
    tiny.merge(src);
    EXPECT_EQ(tiny.bucket(2), 1u);
}

// ---- means ----

TEST(Means, Harmonic)
{
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 2.0}), 2.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 0.0}), 0.0);
}

TEST(Means, HarmonicBelowArithmetic)
{
    std::vector<double> v = {1.0, 3.0, 5.0, 9.0};
    EXPECT_LT(harmonicMean(v), geometricMean(v));
    EXPECT_LT(geometricMean(v), arithmeticMean(v));
}

TEST(Means, Geometric)
{
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
}

// ---- StatSet ----

TEST(StatSet, SetGetHas)
{
    StatSet s;
    EXPECT_FALSE(s.has("x"));
    EXPECT_DOUBLE_EQ(s.get("x"), 0.0);
    s.set("x", 1.5);
    EXPECT_TRUE(s.has("x"));
    EXPECT_DOUBLE_EQ(s.get("x"), 1.5);
}

TEST(StatSet, DumpIsSorted)
{
    StatSet s;
    s.set("b", 2);
    s.set("a", 1);
    std::string d = s.dump();
    EXPECT_LT(d.find("a 1"), d.find("b 2"));
}

// ---- TablePrinter ----

// ---- metrics registry ----

TEST(Metrics, CountersGaugesAndFlagsReadBackByName)
{
    MetricsRegistry m;
    MetricsRegistry::Counter &rows = m.counter("rows");
    std::uint64_t depth = 7;
    bool degraded = false;
    m.gauge("depth", [&] { return depth; },
            MetricsRegistry::kStats | MetricsRegistry::kHealth);
    m.flag("degraded", [&] { return degraded; },
           MetricsRegistry::kHealth);

    rows.fetch_add(3);
    depth = 2;
    degraded = true;
    EXPECT_EQ(m.value("rows"), 3u);
    EXPECT_EQ(m.value("depth"), 2u);
    EXPECT_EQ(m.value("degraded"), 1u);

    // Each scope walks its own metrics, in declaration order.
    std::vector<std::string> health;
    m.forEach(MetricsRegistry::kHealth,
              [&](const std::string &name, std::uint64_t value,
                  bool is_flag) {
                  health.push_back(name + "=" + std::to_string(value) +
                                   (is_flag ? "?" : ""));
              });
    EXPECT_EQ(health, (std::vector<std::string>{"depth=2",
                                                "degraded=1?"}));
}

TEST(Metrics, UnknownAndDuplicateNamesFailLoudly)
{
    MetricsRegistry m;
    m.counter("shard_retries");
    EXPECT_THROW(m.value("shard_retires"), std::out_of_range)
        << "a typo must not read as 0";
    EXPECT_THROW(m.counter("shard_retries"), std::logic_error);
    EXPECT_THROW(m.gauge("shard_retries", [] { return 1u; }),
                 std::logic_error);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter tp;
    tp.addHeader({"name", "value"});
    tp.addRow({"a", "1"});
    tp.addRow({"longer", "22"});
    std::string out = tp.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinter, FormatHelpers)
{
    EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::pct(0.0312, 1), "3.1%");
}
