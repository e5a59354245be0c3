/**
 * @file
 * Cross-module property tests: invariants that must hold for every
 * suite workload, layout, and architecture — placement totality,
 * oracle/image agreement, predictor learnability across bias levels,
 * and end-to-end conservation laws of the processor model.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "bpred/gskew.hh"
#include "bpred/perceptron.hh"
#include "layout/layout_opt.hh"
#include "layout/oracle.hh"
#include "sim/experiment.hh"
#include "workload/suite.hh"

using namespace sfetch;

// ---- placement properties over the whole suite ----

class ImageProperties : public ::testing::TestWithParam<std::string>
{};

TEST_P(ImageProperties, PlacementIsTotalAndConsistent)
{
    SyntheticWorkload w = generateWorkload(suiteParams(GetParam()));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 30'000);
    for (auto maker : {0, 1, 2}) {
        std::vector<BlockId> order;
        switch (maker) {
          case 0: order = baselineOrder(w.program); break;
          case 1: order = optimizedOrder(w.program, prof); break;
          default: order = stcOrder(w.program, prof); break;
        }
        CodeImage img(w.program, order);

        // Total instruction count = program + stubs.
        EXPECT_EQ(img.numInsts(),
                  w.program.staticInsts() + img.numStubs());

        // Every instruction address resolves; block bodies map back.
        std::uint64_t stubs_seen = 0;
        for (Addr pc = img.baseAddr(); pc < img.endAddr();
             pc += kInstBytes) {
            const StaticInst &si = img.inst(pc);
            if (si.isStub()) {
                ++stubs_seen;
                EXPECT_EQ(si.btype, BranchType::Jump);
                EXPECT_TRUE(img.contains(img.takenTarget(pc)));
                continue;
            }
            const BasicBlock &b = w.program.block(si.block);
            EXPECT_LT(si.offset, b.numInsts);
            EXPECT_EQ(img.blockAddr(si.block) +
                      instsToBytes(si.offset), pc);
            if (si.isBranch() && si.btype != BranchType::Return &&
                si.btype != BranchType::IndirectJump) {
                EXPECT_TRUE(img.contains(img.takenTarget(pc)));
            }
        }
        EXPECT_EQ(stubs_seen, img.numStubs());
    }
}

TEST_P(ImageProperties, OracleStaysInsideImage)
{
    SyntheticWorkload w = generateWorkload(suiteParams(GetParam()));
    CodeImage img(w.program, baselineOrder(w.program));
    OracleStream oracle(img, w.model, kRefSeed);
    for (int i = 0; i < 30'000; ++i) {
        OracleInst oi = oracle.next();
        ASSERT_TRUE(img.contains(oi.pc));
        ASSERT_TRUE(img.contains(oi.nextPc));
        // Non-branches always fall through.
        if (!oi.isBranch()) {
            ASSERT_EQ(oi.nextPc, oi.pc + kInstBytes);
        }
        // Unconditional types are always taken.
        if (alwaysTaken(oi.btype)) {
            ASSERT_TRUE(oi.taken);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ImageProperties,
    ::testing::Values("gzip", "vpr", "crafty", "eon", "gap",
                      "bzip2"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---- predictor learnability across bias levels ----

class BiasSweep : public ::testing::TestWithParam<int>
{};

TEST_P(BiasSweep, PredictorsTrackStaticBias)
{
    // A branch taken with probability p: any 2-bit-counter predictor
    // must converge to accuracy >= max(p, 1-p) - epsilon.
    double p = GetParam() / 100.0;
    GskewPredictor gskew;
    PerceptronPredictor perc;
    Pcg32 rng(GetParam());
    std::uint64_t hist = 0;
    int n = 30'000, skip = 10'000;
    int ok_g = 0, ok_p = 0, measured = 0;
    for (int i = 0; i < n; ++i) {
        bool taken = rng.nextBool(p);
        bool pg = gskew.predict(0x4000, hist);
        bool pp = perc.predict(0x4000, hist);
        if (i >= skip) {
            ok_g += (pg == taken);
            ok_p += (pp == taken);
            ++measured;
        }
        gskew.update(0x4000, hist, taken);
        perc.update(0x4000, hist, taken);
        hist = (hist << 1) | taken;
    }
    // The perceptron's bias weight tracks static bias tightly. The
    // 2bcgskew's partial-update policy trades some iid-noise floor
    // for real-branch accuracy, so its bound is looser.
    double floor = std::max(p, 1.0 - p);
    EXPECT_GT(double(ok_g) / measured, floor - 0.12)
        << "gskew p=" << p;
    EXPECT_GT(double(ok_p) / measured, floor - 0.05)
        << "perceptron p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Bias, BiasSweep,
                         ::testing::Values(50, 65, 80, 90, 97));

// ---- end-to-end conservation over a matrix of configurations ----

class RunMatrix
    : public ::testing::TestWithParam<std::tuple<const char *, unsigned>>
{};

TEST_P(RunMatrix, ConservationLaws)
{
    auto [arch, width] = GetParam();
    PlacedWorkload work("gap");
    SimConfig cfg(arch);
    cfg.width = width;
    cfg.optimizedLayout = true;
    cfg.insts = 50'000;
    cfg.warmupInsts = 15'000;
    SimStats st = runOn(work, cfg);

    // Committed work is bounded by fetched correct-path work.
    EXPECT_LE(st.committedInsts,
              st.fetchedCorrect + cfg.warmupInsts + 64);
    // Mispredicts cannot exceed committed branches (one divergence
    // per branch at most).
    EXPECT_LE(st.mispredicts, st.committedBranches + 1);
    // Conditional mispredicts are a subset.
    EXPECT_LE(st.condMispredicts, st.mispredicts);
    // Fetch IPC can never exceed the machine width.
    EXPECT_LE(st.fetchIpc(), double(width) + 1e-9);
    // IPC is positive and width-bounded.
    EXPECT_GT(st.ipc(), 0.0);
    EXPECT_LE(st.ipc(), double(width));
    // By-type counters sum to the total.
    std::uint64_t by_type = 0;
    for (int t = 0; t < 7; ++t)
        by_type += st.mispredictsByType[t];
    EXPECT_EQ(by_type, st.mispredicts);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RunMatrix,
    ::testing::Combine(::testing::Values("ev8", "ftb", "stream", "trace"),
                       ::testing::Values(2u, 4u, 8u)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param)) + "_w" +
               std::to_string(std::get<1>(info.param));
    });

// ---- layout quality across the whole suite ----

TEST(LayoutProperty, OptimizationNeverIncreasesTakenFraction)
{
    for (const auto &name : suiteNames()) {
        SyntheticWorkload w = generateWorkload(suiteParams(name));
        EdgeProfile prof = collectProfile(w.program, w.model,
                                          kTrainSeed, 50'000);
        CodeImage base(w.program, baselineOrder(w.program));
        CodeImage opt(w.program, optimizedOrder(w.program, prof));
        double tb = evaluateLayout(w.program, prof,
                                   base).takenFraction();
        double to = evaluateLayout(w.program, prof,
                                   opt).takenFraction();
        EXPECT_LE(to, tb + 1e-9) << name;
    }
}

TEST(LayoutProperty, StreamsLongerOnOptimizedLayouts)
{
    // The paper's enabling observation, checked across benchmarks:
    // mean stream length grows under the optimized layout.
    for (const auto &name : {"gzip", "gcc", "vortex"}) {
        PlacedWorkload work(name);
        auto mean_len = [&](bool opt) {
            const CodeImage &img = work.image(opt);
            OracleStream oracle(img, work.model(), kRefSeed);
            std::uint64_t streams = 0, insts = 0, run = 0;
            for (int i = 0; i < 200'000; ++i) {
                OracleInst oi = oracle.next();
                ++run;
                if (oi.isBranch() && oi.taken) {
                    ++streams;
                    insts += run;
                    run = 0;
                }
            }
            return streams ? double(insts) / double(streams) : 0.0;
        };
        EXPECT_GT(mean_len(true), mean_len(false) * 1.15) << name;
    }
}
