/**
 * @file
 * Tests for the experiment harness: machine configuration, engine
 * factory, placed workloads, and end-to-end reproducibility.
 */

#include <gtest/gtest.h>

#include "layout/layout_opt.hh"
#include "sim/experiment.hh"

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
    EXPECT_NE(&w.baseImage(), &w.optImage());
    EXPECT_EQ(&w.image(false), &w.baseImage());
    EXPECT_EQ(&w.image(true), &w.optImage());
    // Both images place the full program.
    EXPECT_GE(w.baseImage().numInsts(), w.program().staticInsts());
    EXPECT_GE(w.optImage().numInsts(), w.program().staticInsts());
}

TEST(Experiment, OptimizedLayoutReducesTakenFraction)
{
    PlacedWorkload w("vortex");
    EdgeProfile prof = collectProfile(w.program(), w.model(),
                                      kTrainSeed, 100'000);
    LayoutQuality base = evaluateLayout(w.program(), prof,
                                        w.baseImage());
    LayoutQuality opt = evaluateLayout(w.program(), prof,
                                       w.optImage());
    EXPECT_LT(opt.takenFraction(), base.takenFraction());
}

TEST(Experiment, MakeEngineBuildsEveryArch)
{
    PlacedWorkload w("gzip");
    MemoryConfig mc;
    MemoryHierarchy mem(mc);
    for (const SimConfig &cfg : paperArchConfigs()) {
        auto engine = cfg.makeEngine(w.baseImage(), &mem);
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
