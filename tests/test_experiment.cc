/**
 * @file
 * Tests for the experiment harness: machine configuration, engine
 * factory, placed workloads, and end-to-end reproducibility.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "layout/layout_opt.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/workload_cache.hh"

using namespace sfetch;

TEST(Experiment, ArchNamesMatchPaperLabels)
{
    std::vector<std::string> labels;
    for (const SimConfig &cfg : paperArchConfigs())
        labels.push_back(cfg.label());
    EXPECT_EQ(labels, (std::vector<std::string>{
                          "EV8+2bcgskew", "FTB+perceptron", "Streams",
                          "Tcache+Tpred"}));
}

TEST(Experiment, LineBytesFollowTable2)
{
    // Table 2: L1 inst line = 4x pipe width = 32/64/128 bytes.
    EXPECT_EQ(defaultLineBytes(2), 32u);
    EXPECT_EQ(defaultLineBytes(4), 64u);
    EXPECT_EQ(defaultLineBytes(8), 128u);
}

TEST(Experiment, PlacedWorkloadBuildsBothLayouts)
{
    PlacedWorkload w("gzip");
    EXPECT_EQ(w.name(), "gzip");
    EXPECT_GT(w.program().numBlocks(), 0u);
    EXPECT_NE(&w.image(false), &w.image(true));
    // Each layout is placed once: later calls return that image.
    EXPECT_EQ(&w.image(false), &w.image(false));
    EXPECT_EQ(&w.image(true), &w.image(true));
    // Both images place the full program.
    EXPECT_GE(w.image(false).numInsts(), w.program().staticInsts());
    EXPECT_GE(w.image(true).numInsts(), w.program().staticInsts());
}

TEST(Experiment, OptimizedLayoutReducesTakenFraction)
{
    PlacedWorkload w("vortex");
    EdgeProfile prof = collectProfile(w.program(), w.model(),
                                      kTrainSeed, 100'000);
    LayoutQuality base = evaluateLayout(w.program(), prof,
                                        w.image(false));
    LayoutQuality opt = evaluateLayout(w.program(), prof,
                                       w.image(true));
    EXPECT_LT(opt.takenFraction(), base.takenFraction());
}

/** The optimized image is placed from the train profile's order. */
TEST(Experiment, OptimizedImageFollowsTheTrainProfile)
{
    PlacedWorkload w("gzip");
    const CodeImage expect(w.program(),
                           optimizedOrder(w.program(), w.trainProfile()));
    const CodeImage &img = w.image(true);
    ASSERT_EQ(img.numInsts(), expect.numInsts());
    for (BlockId id = 0; id < w.program().numBlocks(); ++id)
        ASSERT_EQ(img.blockAddr(id), expect.blockAddr(id)) << id;
}

// ---- first-use placement ----

TEST(PlacedWorkloadFirstUse, ConstructionPlacesNoLayout)
{
    PlacedWorkload w("loops");
    EXPECT_FALSE(w.placed(false));
    EXPECT_FALSE(w.placed(true));
    w.image(true);
    EXPECT_FALSE(w.placed(false));
    EXPECT_TRUE(w.placed(true));
}

/**
 * A workload run and decoded only at `base` never places (so never
 * profiles) the optimized layout: not through runOn(), not through
 * arena(), not through a sweep's set-up.
 */
TEST(PlacedWorkloadFirstUse, BaseOnlyUseNeverProfiles)
{
    PlacedWorkload w("gzip");
    SimConfig cfg("stream");
    cfg.optimizedLayout = false;
    cfg.insts = 20'000;
    cfg.warmupInsts = 5'000;
    runOn(w, cfg);
    w.arena(false, 30'000);
    EXPECT_TRUE(w.placed(false));
    EXPECT_FALSE(w.placed(true));

    const std::string spec = "phased:seed=11";
    WorkloadCache &cache = WorkloadCache::instance();
    std::shared_ptr<const PlacedWorkload> pin = cache.getShared(spec);
    SweepDriver driver(2);
    driver.setQuiet(true);
    std::vector<SweepPoint> points;
    for (const char *arch : {"stream", "ev8"}) {
        SimConfig c(arch);
        c.optimizedLayout = false;
        c.insts = 10'000;
        c.warmupInsts = 2'000;
        points.push_back({spec, c});
    }
    EXPECT_EQ(driver.run(points).size(), points.size());
    EXPECT_TRUE(pin->placed(false));
    EXPECT_FALSE(pin->placed(true));
}

TEST(PlacedWorkloadFirstUse, ConcurrentFirstCallsPlaceOneImage)
{
    PlacedWorkload w("gcc");
    constexpr int kThreads = 8;
    std::vector<const CodeImage *> got(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] { got[t] = &w.image(true); });
    for (std::thread &t : threads)
        t.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[t], got[0]) << "thread " << t;
    EXPECT_TRUE(w.placed(true));
    EXPECT_FALSE(w.placed(false));
}

/**
 * The cache's byte gauges read every slot while other threads build
 * and place workloads (sfetchd's `stats` verb during a job): each
 * build is published under the cache's lock, so the reads are
 * race-free (the TSan job runs this) and end at the sum.
 */
TEST(PlacedWorkloadFirstUse, CacheGaugesReadDuringBuilds)
{
    WorkloadCache &cache = WorkloadCache::instance();
    std::atomic<bool> done{false};
    std::thread poller([&] {
        while (!done.load()) {
            cache.workloadBytes();
            cache.bytesResident();
            cache.size();
        }
    });
    std::vector<std::shared_ptr<const PlacedWorkload>> pins;
    for (int seed = 21; seed < 25; ++seed) {
        pins.push_back(
            cache.getShared("loops:seed=" + std::to_string(seed)));
        pins.back()->image(seed % 2 == 0);
    }
    done = true;
    poller.join();
    std::size_t pinned = 0;
    for (const auto &w : pins)
        pinned += w->bytes();
    EXPECT_GE(cache.workloadBytes(), pinned);
}

/**
 * Generators over one workload never perturb each other: each owns
 * its model's dynamic state, so two interleaved in an irregular
 * pattern each reproduce the stream they produce alone.
 */
TEST(PlacedWorkloadFirstUse, InterleavedGeneratorsReproduceSoloStreams)
{
    PlacedWorkload w("gcc");
    constexpr int kRecords = 20'000;
    auto solo = [&](std::uint64_t seed) {
        TraceGenerator gen(w.program(), w.model(), seed);
        std::vector<ControlRecord> out;
        for (int i = 0; i < kRecords; ++i)
            out.push_back(gen.next());
        return out;
    };
    const std::vector<ControlRecord> a = solo(kRefSeed);
    const std::vector<ControlRecord> b = solo(kTrainSeed);

    TraceGenerator ga(w.program(), w.model(), kRefSeed);
    TraceGenerator gb(w.program(), w.model(), kTrainSeed);
    Pcg32 pick(5, 7);
    int ia = 0, ib = 0;
    while (ia < kRecords || ib < kRecords) {
        const bool take_a =
            ib == kRecords || (ia < kRecords && pick.nextBool(0.5));
        const ControlRecord r = take_a ? ga.next() : gb.next();
        const ControlRecord &want = take_a ? a[ia++] : b[ib++];
        ASSERT_EQ(r.block, want.block) << (take_a ? "a " : "b ") << ia;
        ASSERT_EQ(r.next, want.next) << (take_a ? "a " : "b ") << ib;
    }
}

TEST(Experiment, MakeEngineBuildsEveryArch)
{
    PlacedWorkload w("gzip");
    MemoryConfig mc;
    MemoryHierarchy mem(mc);
    for (const SimConfig &cfg : paperArchConfigs()) {
        auto engine = cfg.makeEngine(w.image(false), &mem);
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->name(), cfg.label());
    }
}

TEST(Experiment, AblationConfigsApply)
{
    PlacedWorkload w("gzip");
    SimConfig cfg = SimConfig::fromSpec("stream:single_table=1");
    cfg.insts = 30'000;
    cfg.warmupInsts = 10'000;
    SimStats st = runOn(w, cfg);
    EXPECT_GE(st.committedInsts, 30'000u);
    // The single-table ablation must never hit the path table.
    EXPECT_DOUBLE_EQ(st.engine.get("nsp.second_hits"), 0.0);
}

TEST(Experiment, LineWidthOverrideChangesMemoryGeometry)
{
    PlacedWorkload w("gzip");
    SimConfig a("stream");
    a.insts = 30'000;
    a.warmupInsts = 5'000;
    SimConfig b = a;
    b.params().setInt("line", 32);
    SimStats sa = runOn(w, a);
    SimStats sb = runOn(w, b);
    // Narrow lines fetch fewer instructions per access.
    EXPECT_LT(sb.fetchIpc(), sa.fetchIpc() + 0.5);
}

TEST(Experiment, RunBenchmarkEndToEnd)
{
    SimConfig cfg("trace");
    cfg.width = 4;
    cfg.insts = 40'000;
    cfg.warmupInsts = 10'000;
    SimStats st = runBenchmark("bzip2", cfg);
    EXPECT_GE(st.committedInsts, 40'000u);
    EXPECT_GT(st.ipc(), 0.3);
    EXPECT_LE(st.ipc(), 4.0);
}

TEST(Experiment, WidthScalingIsMonotoneForStreams)
{
    PlacedWorkload w("eon");
    double prev = 0.0;
    for (unsigned width : {2u, 4u, 8u}) {
        SimConfig cfg("stream");
        cfg.width = width;
        cfg.optimizedLayout = true;
        cfg.insts = 60'000;
        cfg.warmupInsts = 20'000;
        SimStats st = runOn(w, cfg);
        EXPECT_GT(st.ipc(), prev * 0.95); // wider is not slower
        prev = st.ipc();
    }
    EXPECT_GT(prev, 1.0);
}

/**
 * Table 1 pinned: the fetch-unit histograms of 100K committed
 * instructions on three workload shapes and both layouts, recorded
 * while Table 1 still walked OracleStream one instruction at a time.
 * Each unit keeps its sample count, sum, p50, p90 and max, so any
 * change in how the committed path is read moves one of them.
 */
TEST(Experiment, Table1FetchUnitsMatchTheGolden)
{
    struct Unit
    {
        std::uint64_t count, sum, p50, p90, max;
    };
    struct Row
    {
        const char *bench;
        bool optimized;
        Unit units[3]; //!< basic block, trace, stream
    };
    const Row golden[] = {
        {"gzip", false,
         {{11831u, 99992u, 9u, 12u, 40u},
          {6321u, 99979u, 16u, 16u, 16u},
          {11470u, 99992u, 9u, 12u, 60u}}},
        {"gzip", true,
         {{11835u, 99996u, 9u, 12u, 40u},
          {6321u, 99983u, 16u, 16u, 16u},
          {8070u, 99992u, 9u, 16u, 63u}}},
        {"server", false,
         {{16053u, 99997u, 4u, 12u, 12u},
          {9547u, 99993u, 12u, 16u, 16u},
          {14058u, 99993u, 4u, 12u, 20u}}},
        {"server", true,
         {{15827u, 99998u, 4u, 12u, 12u},
          {9573u, 99998u, 12u, 16u, 16u},
          {12664u, 99998u, 8u, 12u, 20u}}},
        {"loops", false,
         {{7709u, 100000u, 15u, 18u, 18u},
          {6283u, 99998u, 16u, 16u, 16u},
          {7174u, 100000u, 15u, 18u, 35u}}},
        {"loops", true,
         {{7765u, 99993u, 15u, 18u, 18u},
          {6280u, 99980u, 16u, 16u, 16u},
          {5929u, 99993u, 15u, 23u, 31u}}},
    };
    const char *names[] = {"basic block", "trace", "stream"};
    for (const Row &row : golden) {
        const PlacedWorkload &w = WorkloadCache::instance().get(row.bench);
        const FetchUnitSizes got =
            measureFetchUnits(w, row.optimized, 100'000);
        const Histogram *hist[] = {&got.basicBlock, &got.trace,
                                   &got.stream};
        for (int u = 0; u < 3; ++u) {
            SCOPED_TRACE(std::string(row.bench) +
                         (row.optimized ? " opt " : " base ") + names[u]);
            const Unit &want = row.units[u];
            EXPECT_EQ(hist[u]->count(), want.count);
            EXPECT_EQ(hist[u]->sum(), want.sum);
            EXPECT_EQ(hist[u]->percentile(0.5), want.p50);
            EXPECT_EQ(hist[u]->percentile(0.9), want.p90);
            EXPECT_EQ(hist[u]->maxValue(), want.max);
        }
    }
}
