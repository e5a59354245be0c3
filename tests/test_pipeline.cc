/**
 * @file
 * Integration tests for the processor model: every fetch
 * architecture driving the back end over real workloads, divergence
 * detection, redirect timing, and statistic consistency.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/stream_engine.hh"
#include "fetch/ev8.hh"
#include "fetch/ftb.hh"
#include "isa/cfg_builder.hh"
#include "layout/layout_opt.hh"
#include "pipeline/processor.hh"
#include "sim/experiment.hh"
#include "tcache/trace_engine.hh"
#include "workload/suite.hh"

using namespace sfetch;

namespace
{

/** Tiny fully-biased workload: every branch perfectly predictable. */
SyntheticWorkload
biasedLoop()
{
    CfgBuilder b("biased");
    BlockId body = b.addBlock(8);
    BlockId latch = b.addBlock(2);
    b.fallthrough(body, latch);
    b.cond(latch, body, body); // degenerate: both successors = body
    SyntheticWorkload w;
    // Make the latch always "taken" (loop forever) via Loop model
    // with huge trips.
    CondModel cm;
    cm.kind = CondModel::Kind::Loop;
    cm.meanTrips = 1e9;
    cm.tripJitter = 0.0;
    w.model.setCond(1, cm);
    w.program = b.build(body);
    return w;
}

/** A loop with an unpredictable (iid 50/50) branch inside. */
SyntheticWorkload
noisyLoop()
{
    CfgBuilder b("noisy");
    BlockId head = b.addBlock(4);
    BlockId arm = b.addBlock(4);
    BlockId join = b.addBlock(4);
    b.cond(head, join, arm); // 50/50
    b.fallthrough(arm, join);
    b.jump(join, head);
    SyntheticWorkload w;
    w.program = b.build(head);
    CondModel cm;
    cm.kind = CondModel::Kind::Biased;
    cm.pPrimary = 0.5;
    w.model.setCond(head, cm);
    return w;
}

struct Harness
{
    SyntheticWorkload work;
    std::unique_ptr<CodeImage> img;
    std::unique_ptr<MemoryHierarchy> mem;
    std::unique_ptr<FetchEngine> engine;
    std::unique_ptr<Processor> proc;

    Harness(SyntheticWorkload w, const char *arch, unsigned width = 8)
        : work(std::move(w))
    {
        img = std::make_unique<CodeImage>(work.program,
                                          baselineOrder(work.program));
        MemoryConfig mc;
        mem = std::make_unique<MemoryHierarchy>(mc);
        SimConfig cfg(arch);
        cfg.width = width;
        engine = cfg.makeEngine(*img, mem.get());
        ProcessorConfig pc;
        pc.width = width;
        proc = std::make_unique<Processor>(pc, engine.get(), *img,
                                           work.model, mem.get(),
                                           kRefSeed);
    }
};

} // namespace

TEST(Processor, RejectsWidthBeyondFetchBundleCapacity)
{
    // The FetchBundle is a fixed inline array; a silent overrun in
    // release builds would be memory corruption, so construction
    // must fail loudly instead.
    // 2x capacity keeps the default line size (4x width) a power of
    // two, so construction reaches the Processor's own width check.
    EXPECT_THROW(Harness(biasedLoop(), "stream",
                         FetchBundle::kCapacity * 2),
                 std::invalid_argument);
    Harness ok(biasedLoop(), "stream",
               FetchBundle::kCapacity);
    EXPECT_GT(ok.proc->run(1'000).committedInsts, 0u);
}

TEST(Processor, CommitsExactlyRequestedInstructions)
{
    Harness h(biasedLoop(), "stream");
    SimStats st = h.proc->run(50'000, 5'000);
    // Retirement is width-per-cycle, so the run may overshoot by at
    // most one commit group.
    EXPECT_GE(st.committedInsts, 50'000u);
    EXPECT_LT(st.committedInsts, 50'000u + 8);
    EXPECT_GT(st.cycles, 0u);
}

TEST(Processor, PerfectlyPredictableLoopHasNoMispredicts)
{
    Harness h(biasedLoop(), "stream");
    SimStats st = h.proc->run(50'000, 20'000);
    EXPECT_EQ(st.mispredicts, 0u);
    EXPECT_GT(st.ipc(), 2.0); // 10-inst loop body at width 8
}

TEST(Processor, UnpredictableBranchCausesMispredicts)
{
    Harness h(noisyLoop(), "stream");
    SimStats st = h.proc->run(50'000, 10'000);
    // The 50/50 branch executes every ~10 insts: mispredict rate per
    // branch must be substantial.
    EXPECT_GT(st.mispredictRate(), 0.10);
    EXPECT_GT(st.condMispredicts, 500u);
}

TEST(Processor, MispredictPenaltyLowersIpc)
{
    Harness clean(biasedLoop(), "ev8");
    Harness noisy(noisyLoop(), "ev8");
    SimStats a = clean.proc->run(40'000, 10'000);
    SimStats b = noisy.proc->run(40'000, 10'000);
    EXPECT_GT(a.ipc(), b.ipc());
}

TEST(Processor, IpcBoundedByWidth)
{
    for (unsigned width : {2u, 4u, 8u}) {
        Harness h(biasedLoop(), "ev8", width);
        SimStats st = h.proc->run(30'000, 5'000);
        EXPECT_LE(st.ipc(), double(width) + 1e-9);
        EXPECT_GT(st.ipc(), 0.2);
    }
}

TEST(Processor, FetchStatsConsistent)
{
    Harness h(noisyLoop(), "ftb");
    SimStats st = h.proc->run(30'000, 5'000);
    // Every committed instruction was first fetched on the correct
    // path (fetch may be slightly ahead at the end of the run).
    EXPECT_GE(st.fetchedCorrect + 64, st.committedInsts);
    EXPECT_GT(st.fetchCyclesAttempted, 0u);
    EXPECT_GE(st.fetchIpc(), 0.0);
}

TEST(Processor, BranchCountsMatchWorkloadShape)
{
    Harness h(biasedLoop(), "stream");
    SimStats st = h.proc->run(40'000, 4'000);
    // 10-inst loop with one branch: ~10% branches.
    double frac = double(st.committedBranches) /
        double(st.committedInsts);
    EXPECT_NEAR(frac, 0.1, 0.02);
    EXPECT_EQ(st.committedBranches, st.committedCondBranches);
}

class AllArchsOnSuite
    : public ::testing::TestWithParam<std::tuple<const char *, bool>>
{};

TEST_P(AllArchsOnSuite, RunsToCompletionOnRealWorkload)
{
    auto [arch, optimized] = GetParam();
    PlacedWorkload work("vpr");
    SimConfig cfg(arch);
    cfg.width = 8;
    cfg.optimizedLayout = optimized;
    cfg.insts = 60'000;
    cfg.warmupInsts = 20'000;
    SimStats st = runOn(work, cfg);
    EXPECT_GE(st.committedInsts, 60'000u);
    EXPECT_LT(st.committedInsts, 60'000u + 8);
    EXPECT_GT(st.ipc(), 0.3);
    EXPECT_LT(st.ipc(), 8.0);
    EXPECT_LT(st.mispredictRate(), 0.35);
    EXPECT_GT(st.committedBranches, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllArchsOnSuite,
    ::testing::Combine(::testing::Values("ev8", "ftb", "stream", "trace"),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_opt" : "_base");
    });

TEST(Processor, DeterministicAcrossRuns)
{
    PlacedWorkload work("gzip");
    SimConfig cfg("stream");
    cfg.insts = 50'000;
    cfg.warmupInsts = 10'000;
    SimStats a = runOn(work, cfg);
    SimStats b = runOn(work, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.fetchedCorrect, b.fetchedCorrect);
}

TEST(Processor, WrongPathInstructionsAreObserved)
{
    Harness h(noisyLoop(), "ev8");
    SimStats st = h.proc->run(30'000, 5'000);
    // With frequent mispredicts the engine must have fetched down
    // wrong paths (the trace-driven wrong-path model at work).
    EXPECT_GT(st.fetchedWrong, 1000u);
}

// A shared arena stands in for the private decoder of (image, model,
// seed), so the constructor refuses one decoded with another seed or
// from another image, whoever builds the Processor.
TEST(Processor, RefusesAnArenaOfAnotherSeedOrImage)
{
    Harness h(noisyLoop(), "stream");
    const CodeImage twin(h.work.program, baselineOrder(h.work.program));
    const OracleArena arena(*h.img, h.work.model, kRefSeed, 1'000);
    auto refusal = [&](const CodeImage &image, std::uint64_t seed) {
        try {
            Processor(ProcessorConfig{}, h.engine.get(), image,
                      h.work.model, h.mem.get(), seed, &arena);
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(refusal(*h.img, kRefSeed + 1),
              "Processor: the arena was decoded with seed " +
                  std::to_string(kRefSeed) + ", not this run's seed " +
                  std::to_string(kRefSeed + 1));
    EXPECT_EQ(refusal(twin, kRefSeed),
              "Processor: the arena was decoded from a different image "
              "than this run simulates");
    EXPECT_EQ(refusal(*h.img, kRefSeed), "accepted");
}
