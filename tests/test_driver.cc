/**
 * @file
 * Tests for the sweep driver layer: the parallel-equals-serial
 * guarantee, workload caching, CLI helpers, and ResultSet
 * serialization round-trips.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "layout/oracle_arena.hh"
#include "serve/jsonio.hh"
#include "sim/cli.hh"
#include "sim/driver.hh"
#include "sim/workload_cache.hh"

using namespace sfetch;

namespace
{

/** A small 4-arch x 2-width grid over two benchmarks. */
std::vector<SweepPoint>
smallGrid()
{
    std::vector<SimConfig> cfgs;
    for (const SimConfig &arch : paperArchConfigs()) {
        for (unsigned width : {4u, 8u}) {
            SimConfig cfg = arch;
            cfg.width = width;
            cfg.optimizedLayout = true;
            cfg.insts = 25'000;
            cfg.warmupInsts = 5'000;
            cfgs.push_back(cfg);
        }
    }
    return SweepDriver::grid({"gzip", "vpr"}, cfgs);
}

} // namespace

TEST(SweepDriver, GridIsBenchMajorCrossProduct)
{
    SimConfig a;
    a.width = 2;
    SimConfig b;
    b.width = 8;
    auto points = SweepDriver::grid({"gzip", "gcc"}, {a, b});
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].bench, "gzip");
    EXPECT_EQ(points[0].cfg.width, 2u);
    EXPECT_EQ(points[1].bench, "gzip");
    EXPECT_EQ(points[1].cfg.width, 8u);
    EXPECT_EQ(points[2].bench, "gcc");
    EXPECT_EQ(points[3].bench, "gcc");
}

TEST(SweepDriver, ParallelSweepMatchesSerialExactly)
{
    auto points = smallGrid();

    SweepDriver serial(1);
    serial.setQuiet(true);
    ResultSet rs1 = serial.run(points);

    SweepDriver parallel(4);
    parallel.setQuiet(true);
    ResultSet rs4 = parallel.run(points);

    ASSERT_EQ(rs1.size(), points.size());
    ASSERT_EQ(rs4.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(rs1.at(i).bench, points[i].bench);
        EXPECT_EQ(rs1.at(i).cfg, points[i].cfg);
        // The strong guarantee: every counter and engine stat of the
        // parallel run is bit-identical to the serial run.
        EXPECT_EQ(rs1.at(i).stats, rs4.at(i).stats)
            << "row " << i << " (" << points[i].bench << ", "
            << points[i].cfg.label() << ", w"
            << points[i].cfg.width << ") diverged";
    }
}

TEST(SweepDriver, RepeatedRunsAreDeterministic)
{
    auto points = smallGrid();
    SweepDriver driver(4);
    driver.setQuiet(true);
    ResultSet a = driver.run(points);
    ResultSet b = driver.run(points);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a.at(i).stats, b.at(i).stats);
}

/**
 * The second strong guarantee: a sweep replaying the shared
 * pre-decoded committed path (arena mode, the default) is
 * bit-identical to one regenerating every point's oracle stream
 * live. The grid spans every paper engine, two widths and two
 * workloads, so the arena groups cover multiple engines per decode.
 */
TEST(SweepDriver, ArenaSweepMatchesLiveSweepExactly)
{
    auto points = smallGrid();

    SweepDriver live(2);
    live.setQuiet(true);
    live.setArenaMode(false);
    ResultSet rl = live.run(points);

    SweepDriver arena(2);
    arena.setQuiet(true);
    ASSERT_TRUE(arena.arenaMode()); // the default
    ResultSet ra = arena.run(points);

    ASSERT_EQ(rl.size(), points.size());
    ASSERT_EQ(ra.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(rl.at(i).stats, ra.at(i).stats)
            << "row " << i << " (" << points[i].bench << ", "
            << points[i].cfg.label() << ", w"
            << points[i].cfg.width << ") diverged under arena replay";
    }
}

TEST(SweepDriver, ForEachWorkloadVisitsEveryBenchOnce)
{
    SweepDriver driver(4);
    driver.setQuiet(true);
    std::vector<std::string> benches = {"gzip", "vpr", "eon"};
    std::vector<std::string> seen(benches.size());
    driver.forEachWorkload(benches,
                           [&](const PlacedWorkload &w,
                               std::size_t i) { seen[i] = w.name(); });
    EXPECT_EQ(seen, benches);
}

/**
 * The streaming overload's contract: every row is delivered exactly
 * once, with its point index, and both the streamed rows and the
 * returned ResultSet are bit-identical to a plain run(points) — at
 * one job and at several.
 */
TEST(SweepDriver, RowCallbackStreamsEveryRowIdentically)
{
    auto points = smallGrid();
    SweepDriver base(1);
    base.setQuiet(true);
    ResultSet expect = base.run(points);
    ASSERT_EQ(expect.size(), points.size());

    for (unsigned jobs : {1u, 4u}) {
        SweepDriver driver(jobs);
        driver.setQuiet(true);
        std::vector<char> seen(points.size(), 0);
        std::vector<ResultRow> streamed(points.size());
        std::size_t calls = 0;
        ResultSet rs = driver.run(
            points, [&](const ResultRow &row, std::size_t point,
                        std::size_t of) {
                ASSERT_EQ(of, points.size());
                ASSERT_LT(point, points.size());
                EXPECT_EQ(seen[point], 0)
                    << "point " << point << " delivered twice";
                seen[point] = 1;
                streamed[point] = row;
                ++calls;
            });
        EXPECT_EQ(calls, points.size()) << "jobs=" << jobs;
        ASSERT_EQ(rs.size(), points.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(streamed[i].bench, rs.at(i).bench);
            EXPECT_EQ(streamed[i].cfg, rs.at(i).cfg);
            EXPECT_EQ(streamed[i].stats, rs.at(i).stats)
                << "jobs=" << jobs << " row " << i
                << ": callback row != returned row";
            EXPECT_EQ(rs.at(i).stats, expect.at(i).stats)
                << "jobs=" << jobs << " row " << i
                << ": streamed run != plain run";
        }
    }
}

/**
 * The calling thread is one of a sweep's N threads: every point is
 * delivered once, from at most N distinct threads with the caller's
 * among them, and a sweep of one spawns no thread and delivers in
 * point order.
 */
TEST(SweepDriver, CallerIsOneOfTheSweepThreads)
{
    auto points = smallGrid();
    for (unsigned jobs : {1u, 2u, 4u}) {
        SweepDriver driver(jobs);
        driver.setQuiet(true);
        std::vector<std::size_t> order;
        std::set<std::thread::id> threads;
        driver.run(points, [&](const ResultRow &, std::size_t point,
                               std::size_t) {
            order.push_back(point);
            threads.insert(std::this_thread::get_id());
        });
        std::vector<std::size_t> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(sorted.size(), points.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < sorted.size(); ++i)
            EXPECT_EQ(sorted[i], i) << "jobs=" << jobs;
        EXPECT_LE(threads.size(), jobs);
        EXPECT_EQ(threads.count(std::this_thread::get_id()), 1u)
            << "jobs=" << jobs << ": the caller ran no point";
        if (jobs == 1) {
            EXPECT_EQ(threads.size(), 1u);
            EXPECT_EQ(order, sorted) << "a serial sweep is point-ordered";
        }
    }
}

TEST(SweepDriver, StopFlagCancelsRemainingPoints)
{
    auto points = smallGrid();
    SweepDriver base(1);
    base.setQuiet(true);
    ResultSet expect = base.run(points);

    std::atomic<bool> stop{false};
    SweepDriver driver(1);
    driver.setQuiet(true);
    driver.setStopFlag(&stop);
    std::size_t calls = 0;
    ResultSet rs = driver.run(
        points, [&](const ResultRow &, std::size_t, std::size_t) {
            if (++calls == 3)
                stop = true;
        });
    EXPECT_EQ(calls, 3u);
    // Completed points survive, in point order, bit-identical to an
    // uncancelled run; everything after the flag flipped is absent.
    ASSERT_EQ(rs.size(), 3u);
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs.at(i).cfg, expect.at(i).cfg);
        EXPECT_EQ(rs.at(i).stats, expect.at(i).stats);
    }
}

TEST(WorkloadCache, ReturnsSameInstance)
{
    WorkloadCache &cache = WorkloadCache::instance();
    const PlacedWorkload &a = cache.get("gzip");
    const PlacedWorkload &b = cache.get("gzip");
    EXPECT_EQ(&a, &b);
    EXPECT_TRUE(cache.contains("gzip"));
    EXPECT_EQ(a.name(), "gzip");
}

TEST(WorkloadCache, UnknownBenchmarkThrows)
{
    EXPECT_THROW(WorkloadCache::instance().get("not-a-benchmark"),
                 std::invalid_argument);
}

TEST(WorkloadCache, ByteAccountingTracksDecodedArenas)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    EXPECT_EQ(cache.bytesResident(), 0u);
    const std::uint64_t ev0 = cache.evictions();
    EXPECT_EQ(cache.evictLru(), 0u); // empty cache: nothing to evict
    EXPECT_EQ(cache.evictions(), ev0);

    const PlacedWorkload &gzip = cache.get("gzip");
    EXPECT_EQ(cache.bytesResident(), 0u); // no arena decoded yet
    auto arena = gzip.arena(true, 30'000);
    ASSERT_TRUE(arena);
    EXPECT_GT(arena->bytes(), 0u);
    EXPECT_EQ(cache.bytesResident(), arena->bytes());
    EXPECT_EQ(gzip.arenaBytesResident(), arena->bytes());

    // A second layout's arena adds its control part on top; the
    // data stream both read is counted once.
    auto base_arena = gzip.arena(false, 30'000);
    EXPECT_EQ(cache.bytesResident(),
              arena->bytes() + base_arena->controlBytes());
}

TEST(WorkloadCache, EvictLruDropsOldestAndReturnsItsBytes)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const PlacedWorkload &gzip = cache.get("gzip");
    auto arena = gzip.arena(true, 30'000);
    const std::size_t gzip_bytes = arena->bytes();
    cache.get("vpr"); // more recently used than gzip

    const std::uint64_t ev0 = cache.evictions();
    EXPECT_EQ(cache.evictLru(), gzip_bytes);
    EXPECT_EQ(cache.evictions(), ev0 + 1);
    EXPECT_FALSE(cache.contains("gzip"));
    EXPECT_TRUE(cache.contains("vpr"));
    // Our shared_ptr still keeps the decoded arena itself alive.
    EXPECT_GE(OracleArena::liveBytes(), gzip_bytes);

    // evictToBudget(0) empties everything evictable.
    cache.evictToBudget(0);
    EXPECT_EQ(cache.bytesResident(), 0u);
}

TEST(WorkloadCache, PinnedEntriesAreNotEvicted)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    std::shared_ptr<const PlacedWorkload> pin =
        cache.getShared("gzip");
    cache.get("vpr");

    // gzip is LRU but pinned, so eviction lands on vpr.
    cache.evictLru();
    EXPECT_TRUE(cache.contains("gzip"));
    EXPECT_FALSE(cache.contains("vpr"));

    // Nothing evictable while the pin is held.
    const std::uint64_t ev0 = cache.evictions();
    EXPECT_EQ(cache.evictLru(), 0u);
    EXPECT_EQ(cache.evictions(), ev0);
    EXPECT_TRUE(cache.contains("gzip"));

    pin.reset();
    cache.evictLru();
    EXPECT_FALSE(cache.contains("gzip"));
}

TEST(WorkloadCache, ClearDropsArenaRefsEvenOnPinnedEntries)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    std::shared_ptr<const PlacedWorkload> pin =
        cache.getShared("gzip");
    auto arena = pin->arena(true, 30'000);
    const std::size_t bytes = arena->bytes();
    EXPECT_EQ(cache.bytesResident(), bytes);
    arena.reset(); // the workload's cached slot still holds it
    EXPECT_GE(OracleArena::liveBytes(), bytes);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.bytesResident(), 0u);
    // The pinned workload survives clear(), usable as ever — but its
    // arena memory was released, not parked.
    EXPECT_EQ(pin->arenaBytesResident(), 0u);
    EXPECT_EQ(pin->name(), "gzip");
}

/**
 * A workload sheds its arenas together: an arena a replay holds
 * stays, and keeps the data stream; the stream goes with the last
 * arena. The workload stays built and decodes afresh on next use.
 */
TEST(WorkloadCache, ShedArenasKeepsHeldArenasAndTheWorkload)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const std::size_t live0 = OracleArena::liveBytes();
    const std::uint64_t decodes0 = PlacedWorkload::arenaDecodes();
    const std::uint64_t nanos0 = PlacedWorkload::arenaDecodeNanos();
    const PlacedWorkload &gzip = cache.get("gzip");
    auto held = gzip.arena(true, 30'000); // a replay in flight
    const std::size_t base_control =
        gzip.arena(false, 30'000)->controlBytes();
    const std::size_t held_bytes = held->bytes();
    // Two decodes, each timed; a hit decodes nothing.
    EXPECT_EQ(gzip.arena(true, 20'000), held);
    EXPECT_EQ(PlacedWorkload::arenaDecodes(), decodes0 + 2);
    EXPECT_GT(PlacedWorkload::arenaDecodeNanos(), nanos0);

    EXPECT_EQ(gzip.shedArenas(), base_control);
    EXPECT_EQ(gzip.cachedArena(false, 0), nullptr);
    EXPECT_EQ(gzip.cachedArena(true, 0), held)
        << "an externally held arena must never be shed";
    EXPECT_EQ(gzip.arenaBytesResident(), held_bytes);
    EXPECT_EQ(OracleArena::liveBytes() - live0, held_bytes);

    held.reset();
    EXPECT_EQ(gzip.shedArenas(), held_bytes);
    EXPECT_EQ(gzip.shedArenas(), 0u); // nothing left to shed
    EXPECT_EQ(gzip.arenaBytesResident(), 0u);
    EXPECT_EQ(OracleArena::liveBytes(), live0);
    EXPECT_TRUE(cache.contains("gzip"));

    // A shed arena is simply re-decoded on next use.
    auto again = gzip.arena(true, 30'000);
    ASSERT_TRUE(again);
    EXPECT_EQ(cache.bytesResident(), again->bytes());
    EXPECT_EQ(PlacedWorkload::arenaDecodes(), decodes0 + 3);
    cache.clear();
}

TEST(WorkloadCache, EvictToBudgetShedsArenasBeforeWholeEntries)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const PlacedWorkload &gzip = cache.get("gzip");
    gzip.arena(false, 30'000);
    gzip.arena(true, 30'000);
    const std::size_t gzip_bytes = gzip.arenaBytesResident();
    const PlacedWorkload &vpr = cache.get("vpr"); // more recently used
    const std::size_t vpr_bytes = vpr.arena(true, 30'000)->bytes();

    // A budget that fits vpr's arena sheds both of gzip's, the LRU
    // entry's, as one eviction; both workloads (expensive builds)
    // survive.
    const std::uint64_t ev0 = cache.evictions();
    EXPECT_EQ(cache.evictToBudget(vpr_bytes), gzip_bytes);
    EXPECT_EQ(cache.evictions(), ev0 + 1);
    EXPECT_TRUE(cache.contains("gzip"));
    EXPECT_TRUE(cache.contains("vpr"));
    EXPECT_EQ(cache.bytesResident(), vpr_bytes);

    // When the remaining arena is held by a replay, shedding yields
    // nothing and evictToBudget falls back to erasing whole unpinned
    // entries (the cache's reference to the arena, not the replay's).
    auto held = vpr.arena(true, 30'000);
    cache.evictToBudget(0);
    EXPECT_FALSE(cache.contains("gzip"));
    EXPECT_FALSE(cache.contains("vpr"));
    EXPECT_EQ(cache.bytesResident(), 0u);
    EXPECT_GE(OracleArena::liveBytes(), held->bytes());
}

/**
 * A pinned entry is never erased, but its cached arenas that no
 * replay holds are shed all the same.
 */
TEST(WorkloadCache, EvictToBudgetShedsUnusedArenasOfPinnedEntries)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const auto pin = cache.getShared("gzip");
    const std::size_t bytes = pin->arena(true, 30'000)->bytes();

    const std::uint64_t ev0 = cache.evictions();
    EXPECT_EQ(cache.evictToBudget(0), bytes);
    EXPECT_EQ(cache.evictions(), ev0 + 1);
    EXPECT_TRUE(cache.contains("gzip"));
    EXPECT_EQ(pin->arenaBytesResident(), 0u);
    EXPECT_EQ(cache.bytesResident(), 0u);

    // Pinned and held: nothing to evict, and nothing is.
    const auto held = pin->arena(true, 30'000);
    EXPECT_EQ(cache.evictToBudget(0), 0u);
    EXPECT_EQ(cache.evictions(), ev0 + 1);
    EXPECT_TRUE(cache.contains("gzip"));
    EXPECT_EQ(pin->cachedArena(true, 0), held);
    cache.clear();
}

/**
 * A decode holds no lock other arena queries need: while one thread
 * decodes a multi-million-instruction arena, the cache's byte gauge
 * (which sfetchd's governor reads under the cache mutex) and a
 * cached arena of the other layout come back before it finishes.
 * The gauge counts the decode in flight at the governor's estimate.
 */
TEST(WorkloadCache, ArenaQueriesDoNotWaitForADecode)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const PlacedWorkload &gzip = cache.get("gzip");
    const auto base = gzip.arena(false, 30'000);
    const std::uint64_t insts = 4'000'000;
    std::atomic<bool> decoded{false};
    std::thread decode([&] {
        gzip.arena(true, insts);
        decoded = true;
    });
    // Once the decode is under way, the gauge counts it.
    const std::size_t in_flight =
        base->bytes() + insts * kArenaBytesPerInstEstimate;
    while (cache.bytesResident() != in_flight && !decoded)
        std::this_thread::yield();

    EXPECT_EQ(gzip.arena(false, 30'000), base);
    EXPECT_EQ(gzip.cachedArena(true, 0), nullptr);
    EXPECT_FALSE(decoded) << "the queries waited for the decode";
    decode.join();
    EXPECT_EQ(cache.bytesResident(),
              base->bytes() +
                  gzip.cachedArena(true, insts)->controlBytes());
    cache.clear();
}

/** An arena whose decode a clear() overtook is not cached. */
TEST(WorkloadCache, ClearDuringADecodeCachesNothing)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const auto gzip = cache.getShared("gzip");
    const std::uint64_t insts = 4'000'000;
    std::shared_ptr<const OracleArena> got;
    std::atomic<bool> decoded{false};
    std::thread decode([&] {
        got = gzip->arena(true, insts);
        decoded = true;
    });
    while (gzip->arenaBytesResident() == 0 && !decoded)
        std::this_thread::yield();
    cache.clear();
    decode.join();
    ASSERT_TRUE(got);
    EXPECT_EQ(got->size(), insts);
    EXPECT_EQ(gzip->arenaBytesResident(), 0u);
    EXPECT_EQ(gzip->cachedArena(true, insts), nullptr);
}

/**
 * Both layouts of one workload read one data stream, drawn once to
 * the longer layout's access count, and every byte gauge counts it
 * once.
 */
TEST(WorkloadCache, LayoutsShareOneDataStreamCountedOnce)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const std::size_t live0 = OracleArena::liveBytes();
    const PlacedWorkload &gzip = cache.get("gzip");
    auto base = gzip.arena(false, 30'000);
    auto opt = gzip.arena(true, 30'000);
    const DataStream &data = base->dataStream();
    EXPECT_EQ(&opt->dataStream(), &data);
    EXPECT_EQ(data.size(), std::max(base->dataCount(), opt->dataCount()));

    const std::size_t once =
        base->controlBytes() + opt->controlBytes() + data.bytes();
    EXPECT_EQ(gzip.arenaBytesResident(), once);
    EXPECT_EQ(cache.bytesResident(), once);
    EXPECT_EQ(OracleArena::liveBytes() - live0, once);
    cache.clear();
}

/**
 * Two threads decoding the two layouts at once, and so extending one
 * data stream at once, build the arenas a one-after-the-other decode
 * builds.
 */
TEST(WorkloadCache, ConcurrentLayoutDecodesMatchSequentialOnes)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const PlacedWorkload &gzip = cache.get("gzip");
    const std::uint64_t insts = 300'000;
    std::shared_ptr<const OracleArena> got[2];
    {
        std::thread base([&] { got[0] = gzip.arena(false, insts); });
        got[1] = gzip.arena(true, insts);
        base.join();
    }
    EXPECT_EQ(&got[0]->dataStream(), &got[1]->dataStream());

    auto data = std::make_shared<DataStream>(gzip.model().data(),
                                             kRefSeed);
    for (bool optimized : {false, true}) {
        const OracleArena one(gzip.image(optimized), gzip.model(),
                              kRefSeed, insts, data);
        const OracleArena &two = *got[optimized];
        EXPECT_EQ(two.size(), one.size());
        EXPECT_EQ(two.streams().conds, one.streams().conds);
        EXPECT_EQ(two.streams().condTaken, one.streams().condTaken);
        EXPECT_EQ(two.streams().target, one.streams().target);
        ASSERT_EQ(two.dataCount(), one.dataCount());
        for (std::uint64_t k = 0; k < one.dataCount(); ++k)
            ASSERT_EQ(two.dataOff(k), one.dataOff(k)) << "access " << k;
    }
    EXPECT_EQ(got[0]->dataStream().size(), data->size());
    cache.clear();
}

/**
 * A replay holding an arena the cache has let go of keeps its data
 * stream alive and reads it unchanged while another decode of the
 * workload extends that stream: its row is the live run's, bit for
 * bit.
 */
TEST(WorkloadCache, ReplayHoldingAnEvictedArenaStaysBitIdentical)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const auto gzip = cache.getShared("gzip");
    SimConfig cfg("stream");
    cfg.width = 8;
    cfg.optimizedLayout = true;
    cfg.insts = 40'000;
    cfg.warmupInsts = 10'000;
    const InstCount total =
        cfg.insts + cfg.warmupInsts + kFetchAheadMargin;
    const auto held = gzip->arena(true, total);
    cache.clear();
    EXPECT_EQ(gzip->arenaBytesResident(), 0u);

    SimStats replayed;
    std::thread replay([&] { replayed = runOn(*gzip, cfg, held.get()); });
    const auto longer = gzip->arena(false, 20 * total);
    replay.join();
    EXPECT_EQ(&longer->dataStream(), &held->dataStream());
    EXPECT_EQ(replayed, runOn(*gzip, cfg));
    cfg.optimizedLayout = false;
    EXPECT_EQ(runOn(*gzip, cfg, longer.get()), runOn(*gzip, cfg));
    cache.clear();
}

TEST(WorkloadCache, HitAndMissCountersAdvance)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const std::uint64_t h0 = cache.hits();
    const std::uint64_t m0 = cache.misses();
    cache.get("gzip");
    EXPECT_EQ(cache.misses(), m0 + 1);
    EXPECT_EQ(cache.hits(), h0);
    cache.get("gzip");
    cache.getShared("gzip");
    EXPECT_EQ(cache.misses(), m0 + 1);
    EXPECT_EQ(cache.hits(), h0 + 2);
}

TEST(ResultSet, CsvRoundTripsRows)
{
    SweepDriver driver(2);
    driver.setQuiet(true);
    SimConfig cfg("stream");
    cfg.width = 8;
    cfg.insts = 20'000;
    cfg.warmupInsts = 4'000;
    SimConfig cfg2 = cfg;
    cfg2.setArch("trace");
    cfg2.optimizedLayout = false;
    cfg2.params().setBool("partial_match", true);
    ResultSet rs =
        driver.run(SweepDriver::grid({"gzip"}, {cfg, cfg2}));

    ResultSet back = ResultSet::fromCsv(rs.toCsv());
    ASSERT_EQ(back.size(), rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(back.at(i).bench, rs.at(i).bench);
        EXPECT_EQ(back.at(i).cfg, rs.at(i).cfg);
        // CSV carries the counters but not engine-internal stats.
        SimStats expect = rs.at(i).stats;
        expect.engine = StatSet{};
        EXPECT_EQ(back.at(i).stats, expect);
        EXPECT_EQ(back.at(i).wallSeconds, rs.at(i).wallSeconds);
    }
}

TEST(ResultSet, JsonRoundTripsRowsIncludingEngineStats)
{
    SweepDriver driver(2);
    driver.setQuiet(true);
    SimConfig cfg = SimConfig::fromSpec("ftb:ftq=8");
    cfg.width = 4;
    cfg.insts = 20'000;
    cfg.warmupInsts = 4'000;
    ResultSet rs = driver.run(SweepDriver::grid({"vpr"}, {cfg}));

    ResultSet back = ResultSet::fromJson(rs.toJson());
    ASSERT_EQ(back.size(), rs.size());
    EXPECT_EQ(back.wallSeconds(), rs.wallSeconds());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(back.at(i).bench, rs.at(i).bench);
        EXPECT_EQ(back.at(i).cfg, rs.at(i).cfg);
        EXPECT_EQ(back.at(i).stats, rs.at(i).stats);
        EXPECT_EQ(back.at(i).wallSeconds, rs.at(i).wallSeconds);
    }
}

/**
 * rowJson() is the daemon's streaming unit; the regression that
 * matters is that concatenating the per-row documents back into the
 * envelope reproduces the exact ResultSet JSON semantics.
 */
TEST(ResultSet, RowJsonConcatenationParsesIdenticallyToToJson)
{
    SweepDriver driver(2);
    driver.setQuiet(true);
    SimConfig cfg("stream");
    cfg.width = 8;
    cfg.insts = 20'000;
    cfg.warmupInsts = 4'000;
    SimConfig cfg2 = cfg;
    cfg2.setArch("ev8");
    cfg2.width = 4;
    ResultSet rs =
        driver.run(SweepDriver::grid({"gzip"}, {cfg, cfg2}));
    ASSERT_EQ(rs.size(), 2u);

    // The member and the free function agree, and each row is a
    // single line (an NDJSON frame can embed it verbatim).
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs.rowJson(i), rowJson(rs.at(i)));
        EXPECT_EQ(rs.rowJson(i).find('\n'), std::string::npos);
    }

    std::string manual = "{\"wall_seconds\": " +
                         jsonNumber(rs.wallSeconds()) +
                         ", \"rows\": [";
    for (std::size_t i = 0; i < rs.size(); ++i)
        manual += (i ? "," : "") + rs.rowJson(i);
    manual += "]}";

    ResultSet a = ResultSet::fromJson(manual);
    ResultSet b = ResultSet::fromJson(rs.toJson());
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.wallSeconds(), b.wallSeconds());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.at(i).bench, b.at(i).bench);
        EXPECT_EQ(a.at(i).cfg, b.at(i).cfg);
        EXPECT_EQ(a.at(i).stats, b.at(i).stats);
        EXPECT_EQ(a.at(i).wallSeconds, b.at(i).wallSeconds);
    }
}

TEST(ResultSet, JsonRejectsMalformedInput)
{
    EXPECT_THROW(ResultSet::fromJson("{"), std::runtime_error);
    EXPECT_THROW(ResultSet::fromJson("{\"rows\": []}"),
                 std::runtime_error); // missing wall_seconds
    EXPECT_THROW(ResultSet::fromCsv(""), std::runtime_error);
    EXPECT_THROW(ResultSet::fromCsv("bench,arch\n"),
                 std::runtime_error); // missing columns

    // An engine param must be an exact int64 the engine accepts; a
    // refusal is a runtime_error naming the key ("ftq": 2.5 used to
    // read back as ftq=2).
    ResultSet rs;
    ResultRow r;
    r.bench = "gzip";
    r.cfg = SimConfig::fromSpec("ftb");
    rs.add(r);
    const std::string doc = rs.toJson();
    const std::size_t at = doc.find("\"params\": {");
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = doc.find('}', at) + 1;
    for (const char *params :
         {"{\"ftq\": 2.5}", "{\"ftq\": 1e30}", "{\"ftq\": -1e30}",
          "{\"ftq\": 0}", "{\"ftq\": true}", "{\"fqt\": 4}"}) {
        const std::string bad = doc.substr(0, at) + "\"params\": " +
                                params + doc.substr(end);
        std::string what;
        try {
            ResultSet::fromJson(bad);
        } catch (const std::runtime_error &e) {
            what = e.what();
        }
        const std::string key = std::string(params).substr(2, 3);
        EXPECT_NE(what.find(key), std::string::npos)
            << params << ": " << what;
    }
    EXPECT_EQ(ResultSet::fromJson(doc).at(0).cfg, r.cfg);
}

TEST(ResultSet, CsvRejectsCorruptNumericCells)
{
    ResultSet rs;
    ResultRow r;
    r.bench = "gzip";
    rs.add(r);
    std::string csv = rs.toCsv();

    // Corrupt the cycles cell of the data row. Signs and blanks are
    // not digits either: a bare strtoull read "-1" back as 2^64 - 1.
    for (const char *garbage : {"12x4", "-1", "+5", " 5"}) {
        std::string bad = csv;
        std::size_t pos = bad.find("gzip,");
        ASSERT_NE(pos, std::string::npos);
        // cycles is the 7th column; splice garbage into it.
        std::string row = bad.substr(pos);
        std::size_t comma = 0;
        for (int c = 0; c < 6; ++c)
            comma = row.find(',', comma) + 1;
        bad = bad.substr(0, pos) + row.substr(0, comma) + garbage +
              row.substr(row.find(',', comma));
        EXPECT_THROW(ResultSet::fromCsv(bad), std::runtime_error)
            << garbage;
    }

    // The unmodified document still parses.
    EXPECT_EQ(ResultSet::fromCsv(csv).size(), 1u);
}

/**
 * The row schema every consumer reads (perfbench, sfbench, sfetchd
 * row frames): the CSV header, the key order of rowJson()'s config
 * and stats objects, and which value lands under which name. Every
 * counter holds a distinct value, assigned by member, so a swapped or
 * missing entry in the SimStats field table fails here.
 */
TEST(ResultSet, RowSchemaKeepsItsShape)
{
    ResultRow r;
    r.bench = "gzip";
    r.cfg = SimConfig::fromSpec("stream:ftq=8,single_table=1");
    r.cfg.width = 4;
    r.cfg.optimizedLayout = false;
    r.cfg.insts = 1000;
    r.cfg.warmupInsts = 200;
    SimStats &st = r.stats;
    st.cycles = 100;
    st.committedInsts = 250;
    st.committedBranches = 64;
    st.committedCondBranches = 48;
    st.mispredicts = 16;
    st.condMispredicts = 9;
    for (std::size_t t = 0; t < SimStats::kNumBranchTypes; ++t)
        st.mispredictsByType[t] = 21 + t;
    st.fetchedCorrect = 300;
    st.fetchedWrong = 30;
    st.fetchCyclesAttempted = 40;
    st.fetchOppInsts = 130;
    st.l1iMissRate = 0.375;
    st.l1dMissRate = 0.125;
    st.engine.set("nsp_hits", 7.5);
    r.wallSeconds = 1.5;
    ResultSet rs;
    rs.add(r);

    const std::string csv = rs.toCsv();
    EXPECT_EQ(csv,
              "bench,spec,width,layout,insts,warmup,cycles,"
              "committed_insts,committed_branches,"
              "committed_cond_branches,mispredicts,cond_mispredicts,"
              "mispredicts_type_0,mispredicts_type_1,"
              "mispredicts_type_2,mispredicts_type_3,"
              "mispredicts_type_4,mispredicts_type_5,"
              "mispredicts_type_6,fetched_correct,fetched_wrong,"
              "fetch_cycles_attempted,fetch_opp_insts,l1i_miss_rate,"
              "l1d_miss_rate,wall_seconds,ipc,fetch_ipc,"
              "mispredict_rate\n"
              "gzip,\"stream:ftq=8,single_table=1\",4,base,1000,200,"
              "100,250,64,48,16,9,21,22,23,24,25,26,27,300,30,40,130,"
              "0.375,0.125,1.5,2.5,3.25,0.25\n");

    const JsonValue row = JsonReader(rowJson(r)).parse();
    auto keys = [](const JsonValue &obj) {
        std::vector<std::string> out;
        for (const auto &kv : obj.object)
            out.push_back(kv.first);
        return out;
    };
    EXPECT_EQ(keys(row), (std::vector<std::string>{
                             "bench", "config", "stats", "wall_seconds"}));
    EXPECT_EQ(keys(row.at("config")),
              (std::vector<std::string>{"spec", "arch", "params",
                                        "width", "layout", "insts",
                                        "warmup"}));
    EXPECT_EQ(keys(row.at("stats")),
              (std::vector<std::string>{
                  "cycles", "committed_insts", "committed_branches",
                  "committed_cond_branches", "mispredicts",
                  "cond_mispredicts", "mispredicts_by_type",
                  "fetched_correct", "fetched_wrong",
                  "fetch_cycles_attempted", "fetch_opp_insts",
                  "l1i_miss_rate", "l1d_miss_rate", "ipc", "fetch_ipc",
                  "mispredict_rate", "engine"}));
    // The stats values in key order, mispredicts_by_type flattened.
    std::vector<double> values;
    for (const auto &[key, val] : row.at("stats").object) {
        if (key == "engine")
            continue;
        if (val.kind == JsonValue::Kind::Array)
            for (const JsonValue &v : val.array)
                values.push_back(v.asNumber());
        else
            values.push_back(val.asNumber());
    }
    EXPECT_EQ(values, (std::vector<double>{
                          100, 250, 64, 48, 16, 9, 21, 22, 23, 24, 25,
                          26, 27, 300, 30, 40, 130, 0.375, 0.125, 2.5,
                          3.25, 0.25}));

    const ResultSet fromJson = ResultSet::fromJson(rs.toJson());
    ASSERT_EQ(fromJson.size(), 1u);
    EXPECT_EQ(fromJson.at(0), r);
    EXPECT_EQ(fromJson.at(0).wallSeconds, r.wallSeconds);
    EXPECT_EQ(fromJson.at(0).stats.engine.get("nsp_hits"), 7.5);

    const ResultSet fromCsv = ResultSet::fromCsv(csv);
    ASSERT_EQ(fromCsv.size(), 1u);
    ResultRow noEngine = r;
    noEngine.stats.engine = StatSet{};
    EXPECT_EQ(fromCsv.at(0), noEngine);
    EXPECT_EQ(fromCsv.at(0).wallSeconds, r.wallSeconds);
    EXPECT_FALSE(fromCsv.at(0) == r); // CSV drops the engine stats
}

TEST(ResultSet, AggregationHelpers)
{
    ResultSet rs;
    for (double ipc : {1.0, 2.0, 4.0}) {
        ResultRow r;
        r.bench = "gzip";
        r.stats.cycles = 1000;
        r.stats.committedInsts =
            static_cast<InstCount>(1000 * ipc);
        rs.add(r);
    }
    auto all = [](const ResultRow &) { return true; };
    auto ipc = [](const ResultRow &r) { return r.stats.ipc(); };
    EXPECT_DOUBLE_EQ(rs.mean(MeanKind::Arithmetic, all, ipc),
                     (1.0 + 2.0 + 4.0) / 3.0);
    EXPECT_DOUBLE_EQ(rs.mean(MeanKind::Harmonic, all, ipc),
                     3.0 / (1.0 + 0.5 + 0.25));
    EXPECT_DOUBLE_EQ(rs.mean(MeanKind::Geometric, all, ipc), 2.0);
    EXPECT_EQ(rs.where([](const ResultRow &r) {
                    return r.stats.committedInsts > 1500;
                }).size(),
              2u);
}

TEST(Cli, ParsesListsAndResolvesBenches)
{
    EXPECT_EQ(CliParser::parseUnsignedList("2,4,8"),
              (std::vector<unsigned>{2, 4, 8}));
    EXPECT_THROW(CliParser::parseUnsignedList("2,x"),
                 std::invalid_argument);
    EXPECT_EQ(resolveBenches({}), suiteNames());
    EXPECT_EQ(resolveBenches({"all"}), suiteNames());
    EXPECT_EQ(resolveBenches({"gzip", "gcc"}),
              (std::vector<std::string>{"gzip", "gcc"}));
    EXPECT_THROW(resolveBenches({"nope"}), std::invalid_argument);
}

// A width past the fetch bundle used to pass the parser and abort the
// sweep with an uncaught throw from Processor (exit 134); the parser
// now refuses it as a usage error.
TEST(Cli, WidthsOutsideTheFetchBundleAreUsageErrors)
{
    auto parse = [](std::vector<std::string> args) {
        CliOptions opts;
        CliParser cli("prog", "width bounds");
        cli.addStandard(&opts, CliParser::kWidths);
        args.insert(args.begin(), "prog");
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        cli.parseOrExit(int(argv.size()), argv.data());
        return opts.widths;
    };
    EXPECT_EQ(parse({"--widths", "1,16"}), (std::vector<unsigned>{1, 16}));
    EXPECT_EXIT(parse({"--widths", "32"}), ::testing::ExitedWithCode(2),
                "width 32 is outside 1..16");
    EXPECT_EXIT(parse({"--widths", "4,0"}), ::testing::ExitedWithCode(2),
                "width 0 is outside 1..16");
}

TEST(Cli, WarmupDefaultsToFifthOfInsts)
{
    CliOptions opts;
    EXPECT_EQ(opts.warmupFor(1'000'000), 200'000u);
    opts.warmupSet = true;
    opts.warmupInsts = 123;
    EXPECT_EQ(opts.warmupFor(1'000'000), 123u);
}
