/**
 * @file
 * Tests for the fetch module: FTQ mechanics, i-cache reader timing,
 * token checkpoints, the shared branch recovery, and the EV8 / FTB
 * engines walking real images.
 */

#include <gtest/gtest.h>

#include "fetch/ev8.hh"
#include "fetch/fetch_engine.hh"
#include "fetch/ftb.hh"
#include "fetch/token_ring.hh"
#include "isa/cfg_builder.hh"
#include "layout/code_image.hh"

using namespace sfetch;

// ---- FetchTargetQueue ----

TEST(Ftq, FifoOrder)
{
    FetchTargetQueue q(4);
    q.push(FetchRequest{0x100, 4, 1, true});
    q.push(FetchRequest{0x200, 8, 2, true});
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.front().start, 0x100u);
    q.pop();
    EXPECT_EQ(q.front().start, 0x200u);
}

TEST(Ftq, FullAtCapacity)
{
    FetchTargetQueue q(2);
    q.push({});
    EXPECT_FALSE(q.full());
    q.push({});
    EXPECT_TRUE(q.full());
    q.clear();
    EXPECT_TRUE(q.empty());
}

#ifdef NDEBUG
TEST(Ftq, PushEnforcesCapacity)
{
    // The queue enforces its own capacity: pushing into a full
    // queue is rejected instead of silently growing. (In debug
    // builds the same condition asserts, so this test is
    // release-only.)
    FetchTargetQueue q(2);
    EXPECT_TRUE(q.push(FetchRequest{0x100, 4, 1, true}));
    EXPECT_TRUE(q.push(FetchRequest{0x200, 4, 2, true}));
    EXPECT_FALSE(q.push(FetchRequest{0x300, 4, 3, true}));
    EXPECT_EQ(q.size(), 2u);
    // The queue contents are untouched by the rejected push.
    EXPECT_EQ(q.front().start, 0x100u);
    q.pop();
    EXPECT_EQ(q.front().start, 0x200u);
    q.pop();
    EXPECT_TRUE(q.empty());
}
#endif

TEST(Ftq, HeadRequestUpdateInPlace)
{
    // The paper's fetch request update: advance start, shrink len.
    FetchTargetQueue q(4);
    q.push(FetchRequest{0x100, 20, 1, true});
    FetchRequest &head = q.front();
    head.start += instsToBytes(8);
    head.lenInsts -= 8;
    EXPECT_EQ(q.front().start, 0x100u + 32);
    EXPECT_EQ(q.front().lenInsts, 12u);
}

// ---- ICacheReader ----

namespace
{

/** One straight-line block of @p insts instructions placed at @p base. */
struct LineImage
{
    Program prog;
    CodeImage img;

    LineImage(Addr base, std::uint32_t insts)
        : prog(makeProgram(insts)), img(prog, baselineOrder(prog), base)
    {}

    static Program
    makeProgram(std::uint32_t insts)
    {
        CfgBuilder b("line");
        BlockId b0 = b.addBlock(insts);
        b.ret(b0);
        return b.build(b0);
    }
};

} // namespace

TEST(ICacheReader, HitGivesLineRemainder)
{
    MemoryConfig mc;
    MemoryHierarchy mem(mc);
    LineImage li(0x1000, 40); // 0x1000..0x10a0: a line and a quarter
    for (Addr a = 0x1000; a < 0x1100; a += 0x80)
        mem.accessInst(a); // warm the lines
    ICacheReader r(&mem, li.img, 128);
    ICacheRun run = r.read(10, 0x1000, 64);
    EXPECT_EQ(run.start, 0x1000u);
    EXPECT_EQ(run.len, 32u); // full 128B line = 32 insts
    EXPECT_EQ(run.meta, li.img.metaAt(0x1000));
    EXPECT_EQ(r.read(11, 0x1010, 64).len, 28u); // mid-line start
    EXPECT_EQ(r.read(12, 0x1010, 5).len, 5u);   // the caller's bound
    // The image's last line stops at endAddr(), not the line end.
    run = r.read(13, 0x1090, 64);
    EXPECT_EQ(run.len, 4u);
    EXPECT_EQ(run.start + instsToBytes(run.len), li.img.endAddr());
    // Off the image: nothing, and no miss.
    EXPECT_EQ(r.read(14, li.img.endAddr(), 64).len, 0u);
    EXPECT_EQ(r.misses(), 0u);
}

TEST(ICacheReader, MissBlocksUntilFill)
{
    MemoryConfig mc;
    MemoryHierarchy mem(mc);
    LineImage li(0x40000, 32);
    ICacheReader r(&mem, li.img, 128);
    Cycle now = 100;
    EXPECT_EQ(r.read(now, 0x40000, 32).len, 0u); // cold miss
    EXPECT_EQ(r.misses(), 1u);
    // Before the full latency elapses: still blocked.
    EXPECT_EQ(r.read(now + 5, 0x40000, 32).len, 0u);
    // After L1+L2+mem latency: line present.
    Cycle lat = mc.l1Latency + mc.l2Latency + mc.memLatency;
    EXPECT_GT(r.read(now + lat, 0x40000, 32).len, 0u);
}

// ---- BranchRecovery ----

namespace
{

ResolvedBranch
resolvedCond(std::uint64_t token, bool taken)
{
    ResolvedBranch rb;
    rb.pc = 0x400000;
    rb.type = BranchType::CondDirect;
    rb.taken = taken;
    rb.target = 0x400100;
    rb.token = token;
    return rb;
}

} // namespace

TEST(BranchRecovery, LiveTokenRestoresThenAppendsOutcome)
{
    BranchRecovery rec(8);
    rec.ras.push(0x1000);
    rec.specHist.push(true);
    rec.specHist.push(false);
    const std::uint64_t hist = rec.specHist.value();
    const std::uint64_t token = rec.checkpoint();

    // Wrong-path predictions after the branch.
    rec.ras.pop();
    rec.ras.push(0x2000);
    rec.ras.push(0x3000);
    rec.specHist.push(true);
    rec.specHist.push(true);

    rec.repair(resolvedCond(token, true), true);
    EXPECT_EQ(rec.ras.top(), 0x1000u);
    EXPECT_EQ(rec.specHist.value(), (hist << 1) | 1);
}

TEST(BranchRecovery, OverwrittenTokenFallsBackToCommittedHistory)
{
    BranchRecovery rec(8);
    rec.specHist.push(true);
    const std::uint64_t token = rec.checkpoint();
    // More puts than the ring holds overwrite the token's slot.
    for (int i = 0; i < 4096; ++i)
        rec.checkpoint();
    rec.commitHist.push(true);
    rec.commitHist.push(true);
    rec.commitHist.push(false);
    rec.specHist.push(true);
    rec.ras.push(0x2000);

    rec.repair(resolvedCond(token, false), true);
    EXPECT_EQ(rec.specHist.value(), rec.commitHist.value() << 1);
    EXPECT_EQ(rec.ras.top(), 0x2000u); // nothing to restore it from
}

TEST(BranchRecovery, NeverTakenEmbeddedCondAppendsNothing)
{
    // The FTB keeps only block enders in its history: a conditional
    // that has never been taken passes push_outcome = false.
    BranchRecovery rec(8);
    rec.specHist.push(true);
    const std::uint64_t hist = rec.specHist.value();
    const std::uint64_t token = rec.checkpoint();
    rec.specHist.push(false);

    rec.repair(resolvedCond(token, false), false);
    EXPECT_EQ(rec.specHist.value(), hist);
}

TEST(BranchRecovery, ReplaysTheBranchsOwnCallOrReturn)
{
    BranchRecovery rec(8);
    rec.ras.push(0x1000);
    ResolvedBranch call;
    call.pc = 0x400010;
    call.type = BranchType::Call;
    call.token = rec.checkpoint();
    rec.repair(call, true);
    EXPECT_EQ(rec.ras.top(), 0x400014u);

    ResolvedBranch ret;
    ret.type = BranchType::Return;
    ret.token = rec.checkpoint();
    rec.repair(ret, true);
    EXPECT_EQ(rec.ras.top(), 0x1000u);
}

// ---- TokenRing ----

TEST(TokenRing, PutGetRoundTrip)
{
    TokenRing<int> ring(16);
    std::uint64_t t1 = ring.put(42);
    std::uint64_t t2 = ring.put(43);
    EXPECT_NE(t1, t2);
    ASSERT_NE(ring.get(t1), nullptr);
    EXPECT_EQ(*ring.get(t1), 42);
    EXPECT_EQ(*ring.get(t2), 43);
}

TEST(TokenRing, OverwrittenTokenReturnsNull)
{
    TokenRing<int> ring(4);
    std::uint64_t t1 = ring.put(1);
    for (int i = 0; i < 4; ++i)
        ring.put(100 + i);
    EXPECT_EQ(ring.get(t1), nullptr);
}

TEST(TokenRing, TokenZeroNeverValid)
{
    TokenRing<int> ring(4);
    EXPECT_EQ(ring.get(0), nullptr);
}

// ---- engines on a concrete image ----

namespace
{

struct EngineFixture
{
    Program prog;
    std::unique_ptr<CodeImage> img;
    MemoryConfig mc;
    std::unique_ptr<MemoryHierarchy> mem;

    EngineFixture() : prog(makeProgram())
    {
        img = std::make_unique<CodeImage>(prog, baselineOrder(prog));
        mem = std::make_unique<MemoryHierarchy>(mc);
        // Warm the i-cache so fetch starts immediately.
        for (Addr a = img->baseAddr(); a < img->endAddr(); a += 16)
            mem->accessInst(a);
    }

    static Program
    makeProgram()
    {
        // b0 (6 insts, cond -> b2/fall b1), b1 (4, jump b3),
        // b2 (4, fall b3), b3 (5, ret)
        CfgBuilder b("eng");
        BlockId b0 = b.addBlock(6);
        BlockId b1 = b.addBlock(4);
        BlockId b2 = b.addBlock(4);
        BlockId b3 = b.addBlock(5);
        b.cond(b0, b2, b1);
        b.jump(b1, b3);
        b.fallthrough(b2, b3);
        b.ret(b3);
        return b.build(b0);
    }
};

/** Expand a bundle's runs into the pcs of its instructions. */
std::vector<Addr>
pcsOf(const FetchBundle &out)
{
    std::vector<Addr> v;
    for (const FetchRun &r : out)
        for (std::uint32_t i = 0; i < r.len; ++i)
            v.push_back(r.start + instsToBytes(i));
    return v;
}

/** Drain one fetch cycle into a vector. */
std::vector<Addr>
cycleOf(FetchEngine &e, Cycle now, unsigned w = 8)
{
    FetchBundle out;
    e.fetchCycle(now, w, out);
    return pcsOf(out);
}

/** Run cycles from @p start until the engine produces output. */
std::vector<Addr>
firstOutput(FetchEngine &e, Cycle start, unsigned w = 8)
{
    for (Cycle t = start; t < start + 300; ++t) {
        FetchBundle out;
        e.fetchCycle(t, w, out);
        if (!out.empty())
            return pcsOf(out);
    }
    return {};
}

/**
 * Point fetch at @p pc the way the processor does: a resolved
 * redirect, here of a non-branch, so no history or RAS repair.
 */
void
fetchFrom(FetchEngine &e, Addr pc)
{
    ResolvedBranch rb;
    rb.type = BranchType::None;
    rb.target = pc;
    e.redirect(rb);
}

} // namespace

TEST(Ev8Engine, FetchesSequentiallyFromEntry)
{
    EngineFixture f;
    Ev8Engine e(Ev8Config{}, *f.img, f.mem.get());
    auto out = cycleOf(e, 1);
    ASSERT_GE(out.size(), 1u);
    EXPECT_EQ(out[0], f.img->entryAddr());
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_EQ(out[i], out[i - 1] + kInstBytes);
}

TEST(Ev8Engine, RespectsMaxInsts)
{
    EngineFixture f;
    Ev8Engine e(Ev8Config{}, *f.img, f.mem.get());
    auto out = cycleOf(e, 1, 3);
    EXPECT_LE(out.size(), 3u);
}

TEST(Ev8Engine, BranchesCarryTokens)
{
    // Each predicted branch has its own checkpoint, so it ends its
    // run and that run carries a token; a run without a branch
    // carries none.
    EngineFixture f;
    Ev8Engine e(Ev8Config{}, *f.img, f.mem.get());
    FetchBundle out;
    e.fetchCycle(1, 8, out);
    ASSERT_FALSE(out.empty());
    for (const FetchRun &r : out) {
        for (std::uint32_t i = 0; i + 1 < r.len; ++i)
            EXPECT_FALSE(f.img->inst(r.start + instsToBytes(i)).isBranch());
        const Addr last = r.start + instsToBytes(r.len - 1);
        EXPECT_EQ(r.token != 0, f.img->inst(last).isBranch())
            << std::hex << last;
    }
}

TEST(Ev8Engine, RedirectMovesFetchPoint)
{
    EngineFixture f;
    Ev8Engine e(Ev8Config{}, *f.img, f.mem.get());
    cycleOf(e, 1);
    ResolvedBranch rb;
    rb.pc = f.img->entryAddr() + instsToBytes(5); // the cond branch
    rb.type = BranchType::CondDirect;
    rb.taken = true;
    rb.target = f.img->blockAddr(2);
    e.redirect(rb);
    auto out = firstOutput(e, 2);
    ASSERT_GE(out.size(), 1u);
    EXPECT_EQ(out[0], f.img->blockAddr(2));
}

TEST(Ev8Engine, TrainCommitInstallsBtbTargets)
{
    EngineFixture f;
    Ev8Engine e(Ev8Config{}, *f.img, f.mem.get());
    CommittedBranch cb;
    cb.pc = f.img->blockAddr(1) + instsToBytes(3); // b1's jump
    cb.type = BranchType::Jump;
    cb.taken = true;
    cb.target = f.img->blockAddr(3);
    e.trainCommit(cb); // must not crash; installs the target
    SUCCEED();
}

TEST(FtbEngine, SequentialOnColdFtbWithSteer)
{
    EngineFixture f;
    FtbEngine e(FtbConfig{}, *f.img, f.mem.get());
    // Without FTB entries the engine fetches sequentially and steers
    // at the unconditional jump in b1 using predecode.
    std::vector<Addr> all;
    for (Cycle t = 1; t < 40 && all.size() < 30; ++t) {
        auto out = cycleOf(e, t);
        all.insert(all.end(), out.begin(), out.end());
    }
    ASSERT_GE(all.size(), 12u);
    // b0 (6) then b1 (4) sequentially...
    EXPECT_EQ(all[0], f.img->blockAddr(0));
    EXPECT_EQ(all[6], f.img->blockAddr(1));
    // ...then the steer lands at b3 (jump target), not b2.
    EXPECT_EQ(all[10], f.img->blockAddr(3));
}

TEST(FtbEngine, CommitBuildsBlocksThatPredict)
{
    EngineFixture f;
    FtbEngine e(FtbConfig{}, *f.img, f.mem.get());

    // Commit the path b0(cond taken -> b2), b2 falls, b3 ret several
    // times so fetch blocks enter the FTB.
    Addr cond_pc = f.img->blockAddr(0) + instsToBytes(5);
    Addr ret_pc = f.img->blockAddr(3) + instsToBytes(4);
    for (int i = 0; i < 4; ++i) {
        CommittedBranch c1;
        c1.pc = cond_pc;
        c1.type = BranchType::CondDirect;
        c1.taken = true;
        c1.target = f.img->blockAddr(2);
        e.trainCommit(c1);
        CommittedBranch c2;
        c2.pc = ret_pc;
        c2.type = BranchType::Return;
        c2.taken = true;
        c2.target = f.img->blockAddr(0);
        e.trainCommit(c2);
    }
    // Point fetch back at the entry: now the FTB should provide a
    // block request of exactly 6 insts (b0).
    fetchFrom(e, f.img->entryAddr());
    auto out = firstOutput(e, 100);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out.back(), cond_pc);
    StatSet s = e.stats();
    EXPECT_GT(s.get("ftb.hits"), 0.0);
}

TEST(FtbEngine, NeverTakenBranchStaysEmbedded)
{
    EngineFixture f;
    FtbEngine e(FtbConfig{}, *f.img, f.mem.get());
    // Commit b0's cond as NOT taken repeatedly: it must not
    // terminate a fetch block (never-taken branches are embedded).
    Addr cond_pc = f.img->blockAddr(0) + instsToBytes(5);
    Addr jump_pc = f.img->blockAddr(1) + instsToBytes(3);
    for (int i = 0; i < 3; ++i) {
        CommittedBranch c1;
        c1.pc = cond_pc;
        c1.type = BranchType::CondDirect;
        c1.taken = false;
        c1.target = cond_pc + kInstBytes;
        e.trainCommit(c1);
        CommittedBranch c2;
        c2.pc = jump_pc;
        c2.type = BranchType::Jump;
        c2.taken = true;
        c2.target = f.img->blockAddr(3);
        e.trainCommit(c2);
        CommittedBranch c3;
        c3.pc = f.img->blockAddr(3) + instsToBytes(4);
        c3.type = BranchType::Return;
        c3.taken = true;
        c3.target = f.img->blockAddr(0);
        e.trainCommit(c3);
    }
    fetchFrom(e, f.img->entryAddr());
    // The first predicted block spans b0+b1 (10 insts) because the
    // embedded never-taken cond does not end it.
    std::vector<Addr> all;
    for (Cycle t = 200; t < 240 && all.size() < 10; ++t) {
        auto out = cycleOf(e, t);
        all.insert(all.end(), out.begin(), out.end());
    }
    ASSERT_GE(all.size(), 10u);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(all[i], f.img->blockAddr(0) + instsToBytes(i));
}
