/**
 * @file
 * Tests for the workload module: branch behaviour models, trace
 * generation, profiling, and the synthetic benchmark generator.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "isa/cfg_builder.hh"
#include "workload/branch_model.hh"
#include "workload/profile.hh"
#include "workload/suite.hh"
#include "workload/synth.hh"
#include "workload/trace_gen.hh"
#include "workload/workload_registry.hh"

using namespace sfetch;

namespace
{

Program
loopProgram()
{
    // entry -> body -> latch (back to body or exit) -> exit(ret)
    CfgBuilder b("loop");
    BlockId body = b.addBlock(4);
    BlockId latch = b.addBlock(2);
    BlockId exit = b.addBlock(2);
    b.fallthrough(body, latch);
    b.cond(latch, body, exit);
    b.ret(exit);
    return b.build(body);
}

} // namespace

// ---- CondModel kinds ----

TEST(CondModel, LoopDeterministicTrips)
{
    WorkloadModel m;
    CondModel cm;
    cm.kind = CondModel::Kind::Loop;
    cm.meanTrips = 5.0;
    cm.tripJitter = 0.0;
    m.setCond(7, cm);

    Pcg32 rng(1);
    // One activation: primary (stay) 4 times, then exit.
    int stays = 0;
    while (m.choosePrimary(7, rng))
        ++stays;
    EXPECT_EQ(stays, 4);
    // Next activation identical.
    stays = 0;
    while (m.choosePrimary(7, rng))
        ++stays;
    EXPECT_EQ(stays, 4);
}

TEST(CondModel, LoopJitterVariesTrips)
{
    WorkloadModel m;
    CondModel cm;
    cm.kind = CondModel::Kind::Loop;
    cm.meanTrips = 20.0;
    cm.tripJitter = 0.4;
    m.setCond(7, cm);

    Pcg32 rng(2);
    std::set<int> trip_counts;
    for (int act = 0; act < 30; ++act) {
        int stays = 0;
        while (m.choosePrimary(7, rng))
            ++stays;
        trip_counts.insert(stays);
        EXPECT_GE(stays + 1, 20 * 0.6 - 1);
        EXPECT_LE(stays + 1, 20 * 1.4 + 1);
    }
    EXPECT_GT(trip_counts.size(), 3u);
}

TEST(CondModel, BiasedFrequency)
{
    WorkloadModel m;
    CondModel cm;
    cm.kind = CondModel::Kind::Biased;
    cm.pPrimary = 0.8;
    m.setCond(3, cm);

    Pcg32 rng(3);
    int prim = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        prim += m.choosePrimary(3, rng);
    EXPECT_NEAR(double(prim) / n, 0.8, 0.02);
}

TEST(CondModel, CorrelatedIsDeterministicGivenHistory)
{
    // With zero noise, two model copies fed identical history make
    // identical choices.
    WorkloadModel m;
    CondModel cm;
    cm.kind = CondModel::Kind::Correlated;
    cm.pPrimary = 0.5;
    cm.noise = 0.0;
    cm.seed = 12345;
    cm.historyBits = 8;
    m.setCond(1, cm);
    CondModel driver;
    driver.kind = CondModel::Kind::Biased;
    driver.pPrimary = 0.5;
    m.setCond(2, driver);

    WorkloadModel m2 = m;
    Pcg32 ra(7), rb(7);
    for (int i = 0; i < 500; ++i) {
        bool a = m.choosePrimary(2, ra);
        bool b = m2.choosePrimary(2, rb);
        ASSERT_EQ(a, b);
        ASSERT_EQ(m.choosePrimary(1, ra), m2.choosePrimary(1, rb));
    }
}

TEST(CondModel, PhasedHoldsRuns)
{
    WorkloadModel m;
    CondModel cm;
    cm.kind = CondModel::Kind::Phased;
    cm.pPrimary = 0.5;
    cm.runLenMean = 100.0;
    m.setCond(9, cm);

    Pcg32 rng(11);
    // Count outcome switches over many instances: with mean run 100,
    // 10000 instances should switch roughly 100 times, far fewer
    // than the ~5000 of an iid coin.
    bool prev = m.choosePrimary(9, rng);
    int switches = 0;
    for (int i = 0; i < 10000; ++i) {
        bool cur = m.choosePrimary(9, rng);
        switches += (cur != prev);
        prev = cur;
    }
    EXPECT_LT(switches, 600);
    EXPECT_GT(switches, 20);
}

TEST(CondModel, PhasedDutyCycleTracksBias)
{
    WorkloadModel m;
    CondModel cm;
    cm.kind = CondModel::Kind::Phased;
    cm.pPrimary = 0.8;
    cm.runLenMean = 50.0;
    m.setCond(9, cm);

    Pcg32 rng(13);
    int prim = 0;
    const int n = 60000;
    for (int i = 0; i < n; ++i)
        prim += m.choosePrimary(9, rng);
    EXPECT_NEAR(double(prim) / n, 0.8, 0.08);
}

TEST(WorkloadModel, ResetClearsDynamicState)
{
    WorkloadModel m;
    CondModel cm;
    cm.kind = CondModel::Kind::Loop;
    cm.meanTrips = 6.0;
    cm.tripJitter = 0.0;
    m.setCond(0, cm);

    Pcg32 rng(5);
    m.choosePrimary(0, rng); // consume part of an activation
    m.reset();
    EXPECT_EQ(m.history(), 0u);
    // After reset a fresh activation starts.
    int stays = 0;
    Pcg32 rng2(5);
    while (m.choosePrimary(0, rng2))
        ++stays;
    EXPECT_EQ(stays, 5);
}

TEST(WorkloadModel, IndirectWeightsRespected)
{
    CfgBuilder b("sw");
    BlockId s = b.addBlock(2);
    BlockId c1 = b.addBlock(2);
    BlockId c2 = b.addBlock(2);
    b.indirect(s, {c1, c2});
    b.jump(c1, s);
    b.jump(c2, s);
    Program p = b.build(s);

    WorkloadModel m;
    IndirectModel im;
    im.weights = {9.0, 1.0};
    im.correlation = 0.0; // pure iid for the frequency check
    m.setIndirect(s, im);

    Pcg32 rng(17);
    int first = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        first += (m.chooseIndirect(s, p.indirectTargets(s), rng) == c1);
    EXPECT_NEAR(double(first) / n, 0.9, 0.02);
}

// ---- TraceGenerator ----

TEST(TraceGenerator, Deterministic)
{
    Program p = loopProgram();
    WorkloadModel m;
    CondModel cm;
    cm.kind = CondModel::Kind::Loop;
    cm.meanTrips = 4.0;
    m.setCond(1, cm);

    TraceGenerator a(p, m, 99), b(p, m, 99);
    for (int i = 0; i < 1000; ++i) {
        ControlRecord ra = a.next();
        ControlRecord rb = b.next();
        ASSERT_EQ(ra.block, rb.block);
        ASSERT_EQ(ra.next, rb.next);
    }
}

TEST(TraceGenerator, SuccessorsAreLegal)
{
    Program p = loopProgram();
    WorkloadModel m;
    TraceGenerator gen(p, m, 42);
    for (int i = 0; i < 2000; ++i) {
        ControlRecord r = gen.next();
        const BasicBlock &blk = p.block(r.block);
        switch (blk.branchType) {
          case BranchType::None:
            EXPECT_EQ(r.next, blk.fallthrough);
            break;
          case BranchType::CondDirect:
            EXPECT_TRUE(r.next == blk.target ||
                        r.next == blk.fallthrough);
            break;
          case BranchType::Return:
            // Empty stack: restart at entry.
            EXPECT_EQ(r.next, p.entry());
            break;
          default:
            break;
        }
    }
}

TEST(TraceGenerator, CallStackPairing)
{
    CfgBuilder b("callret");
    BlockId mainb = b.addBlock(2);
    BlockId callee = b.addBlock(3);
    BlockId cont = b.addBlock(2);
    b.call(mainb, callee, cont);
    b.ret(callee);
    b.jump(cont, mainb);
    Program p = b.build(mainb);

    WorkloadModel m;
    TraceGenerator gen(p, m, 1);
    // main(call) -> callee(ret) -> cont -> main ...
    ControlRecord r1 = gen.next();
    EXPECT_EQ(r1.block, mainb);
    EXPECT_EQ(r1.next, callee);
    EXPECT_EQ(gen.callDepth(), 1u);
    ControlRecord r2 = gen.next();
    EXPECT_EQ(r2.next, cont);
    EXPECT_EQ(gen.callDepth(), 0u);
}

TEST(TraceGenerator, ResetReproduces)
{
    Program p = loopProgram();
    WorkloadModel m;
    TraceGenerator gen(p, m, 5);
    std::vector<BlockId> first;
    for (int i = 0; i < 50; ++i)
        first.push_back(gen.next().next);
    gen.reset();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(gen.next().next, first[i]);
}

TEST(DataAddressStream, DeterministicAndBounded)
{
    DataModel dm;
    dm.workingSetBytes = 1 << 16;
    dm.hotBytes = 1 << 12;
    DataAddressStream a(dm, 3), b(dm, 3);
    for (int i = 0; i < 1000; ++i) {
        Addr x = a.next();
        EXPECT_EQ(x, b.next());
        EXPECT_GE(x, 0x10000000ULL);
        EXPECT_LT(x, 0x10000000ULL + dm.workingSetBytes +
                  dm.hotBytes + 64);
    }
}

// ---- EdgeProfile ----

TEST(EdgeProfile, CountsMatchTrace)
{
    Program p = loopProgram();
    WorkloadModel m;
    EdgeProfile prof = collectProfile(p, m, 7, 5000);
    EXPECT_EQ(prof.totalRecords(), 5000u);
    // Every executed block has a count; body and latch dominate.
    EXPECT_GT(prof.blockCount(0), 0u);
    EXPECT_GT(prof.blockCount(1), 0u);
    EXPECT_EQ(prof.blockCount(0),
              prof.edgeCount(0, 1)); // body always -> latch
}

/**
 * Counting target and fallthrough edges per block and folding them
 * in once gives every edge, returns' and indirect jumps' included,
 * the count that recording each traversal gives.
 */
TEST(EdgeProfile, FoldedCountsMatchRecordByRecord)
{
    for (const char *spec : {"gcc", "server"}) {
        SyntheticWorkload w = buildBenchWorkload(spec);
        const std::uint64_t n = 50'000;
        EdgeProfile prof =
            collectProfile(w.program, w.model, kTrainSeed, n);
        EdgeProfile ref(w.program.numBlocks());
        std::set<std::pair<BlockId, BlockId>> edges;
        TraceGenerator gen(w.program, w.model, kTrainSeed);
        for (std::uint64_t i = 0; i < n; ++i) {
            const ControlRecord rec = gen.next();
            ref.record(rec.block, rec.next);
            edges.insert({rec.block, rec.next});
        }
        EXPECT_EQ(prof.totalRecords(), n);
        for (BlockId b = 0; b < w.program.numBlocks(); ++b) {
            ASSERT_EQ(prof.blockCount(b), ref.blockCount(b)) << spec;
            const BasicBlock &bb = w.program.block(b);
            for (BlockId to : {bb.target, bb.fallthrough})
                ASSERT_EQ(prof.edgeCount(b, to), ref.edgeCount(b, to))
                    << spec << " block " << b;
        }
        for (const auto &[from, to] : edges)
            ASSERT_EQ(prof.edgeCount(from, to), ref.edgeCount(from, to))
                << spec << " edge " << from << " -> " << to;
    }
}

TEST(EdgeProfile, HottestSuccessor)
{
    Program p = loopProgram();
    WorkloadModel m;
    CondModel cm;
    cm.kind = CondModel::Kind::Loop;
    cm.meanTrips = 10.0;
    m.setCond(1, cm);
    EdgeProfile prof = collectProfile(p, m, 7, 5000);
    // The latch's hottest successor is the back edge to the body.
    EXPECT_EQ(prof.hottestSuccessor(1, {0, 2}), 0u);
}

// ---- synthetic generator / suite ----

class SuiteMember : public ::testing::TestWithParam<std::string>
{};

TEST_P(SuiteMember, GeneratesValidProgram)
{
    SyntheticWorkload w = generateWorkload(suiteParams(GetParam()));
    EXPECT_EQ(w.program.validate(), "") << GetParam();
    EXPECT_GT(w.program.numBlocks(), 100u);
    EXPECT_GT(w.model.numCondModels(), 10u);
}

TEST_P(SuiteMember, TraceRunsWithoutGettingStuck)
{
    SyntheticWorkload w = generateWorkload(suiteParams(GetParam()));
    TraceGenerator gen(w.program, w.model, kRefSeed);
    std::set<BlockId> seen;
    for (int i = 0; i < 30000; ++i)
        seen.insert(gen.next().block);
    // The trace must wander over a reasonable part of the program
    // (execution is deliberately skewed towards hot regions).
    EXPECT_GT(seen.size(), w.program.numBlocks() / 100);
}

TEST_P(SuiteMember, GenerationIsDeterministic)
{
    SyntheticWorkload a = generateWorkload(suiteParams(GetParam()));
    SyntheticWorkload b = generateWorkload(suiteParams(GetParam()));
    ASSERT_EQ(a.program.numBlocks(), b.program.numBlocks());
    for (std::size_t i = 0; i < a.program.numBlocks(); ++i) {
        const BasicBlock &x = a.program.block(BlockId(i));
        const BasicBlock &y = b.program.block(BlockId(i));
        ASSERT_EQ(x.numInsts, y.numInsts);
        ASSERT_EQ(x.branchType, y.branchType);
        ASSERT_EQ(x.target, y.target);
        ASSERT_EQ(x.fallthrough, y.fallthrough);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteMember,
    ::testing::ValuesIn(suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Suite, UnknownBenchmarkThrows)
{
    EXPECT_THROW(suiteParams("nosuchbench"), std::invalid_argument);
}

TEST(Suite, HasElevenMembers)
{
    EXPECT_EQ(suiteNames().size(), 11u);
}

TEST(Synth, BranchFractionIsRealistic)
{
    SyntheticWorkload w = generateWorkload(suiteParams("gcc"));
    TraceGenerator gen(w.program, w.model, 1);
    std::uint64_t insts = 0, branches = 0;
    for (int i = 0; i < 20000; ++i) {
        ControlRecord r = gen.next();
        const BasicBlock &blk = w.program.block(r.block);
        insts += blk.numInsts;
        branches += blk.hasBranch();
    }
    double frac = double(branches) / double(insts);
    EXPECT_GT(frac, 0.08);
    EXPECT_LT(frac, 0.30);
}
