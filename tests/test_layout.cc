/**
 * @file
 * Tests for the layout module: CodeImage placement invariants, the
 * Pettis-Hansen-style optimizer, and the oracle instruction stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "isa/cfg_builder.hh"
#include "layout/code_image.hh"
#include "layout/layout_opt.hh"
#include "layout/oracle.hh"
#include "layout/oracle_arena.hh"
#include "sim/experiment.hh"
#include "workload/suite.hh"
#include "workload/workload_registry.hh"

using namespace sfetch;

namespace
{

SyntheticWorkload
hammockLoop()
{
    // Loop around a hammock where the *taken* arm is hot in the
    // baseline layout, so the optimizer has something to fix.
    CfgBuilder b("hl");
    BlockId head = b.addBlock(4);  // cond
    BlockId cold = b.addBlock(3);  // adjacent (fallthrough) arm
    BlockId hot = b.addBlock(6);   // taken arm
    BlockId join = b.addBlock(4);
    BlockId latch = b.addBlock(2);
    BlockId exit = b.addBlock(2);
    b.cond(head, hot, cold);
    b.jump(cold, join);
    b.fallthrough(hot, join);
    b.fallthrough(join, latch);
    b.cond(latch, head, exit);
    b.ret(exit);

    SyntheticWorkload w;
    w.program = b.build(head);
    CondModel hm;
    hm.kind = CondModel::Kind::Biased;
    hm.pPrimary = 0.9; // 90% to the taken (hot) arm
    w.model.setCond(head, hm);
    CondModel lm;
    lm.kind = CondModel::Kind::Loop;
    lm.meanTrips = 16.0;
    w.model.setCond(latch, lm);
    return w;
}

/**
 * The block whose body holds @p pc, from the program's block sizes
 * and the image's block addresses; kNoBlock for a stub.
 */
BlockId
owningBlock(const CodeImage &img, Addr pc)
{
    const Program &p = img.program();
    for (BlockId id = 0; id < p.numBlocks(); ++id) {
        const Addr a = img.blockAddr(id);
        if (pc >= a && pc < a + p.block(id).sizeBytes())
            return id;
    }
    return kNoBlock;
}

/** True when @p pc holds a stub: an unconditional jump in no block. */
bool
isStub(const CodeImage &img, Addr pc)
{
    const StaticInst si = img.inst(pc);
    return owningBlock(img, pc) == kNoBlock &&
        si.cls == InstClass::Branch && si.btype == BranchType::Jump;
}

} // namespace

// ---- CodeImage ----

TEST(CodeImage, BaselineOrderIsIdentity)
{
    SyntheticWorkload w = hammockLoop();
    auto order = baselineOrder(w.program);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(CodeImage, EveryBlockPlacedInBounds)
{
    SyntheticWorkload w = hammockLoop();
    CodeImage img(w.program, baselineOrder(w.program));
    for (BlockId id = 0; id < w.program.numBlocks(); ++id) {
        Addr a = img.blockAddr(id);
        EXPECT_TRUE(img.contains(a));
        // Last instruction of the block is in bounds too.
        EXPECT_TRUE(img.contains(
            a + instsToBytes(w.program.block(id).numInsts - 1)));
    }
}

TEST(CodeImage, InstLookupMatchesBlocks)
{
    SyntheticWorkload w = hammockLoop();
    CodeImage img(w.program, baselineOrder(w.program));
    for (BlockId id = 0; id < w.program.numBlocks(); ++id) {
        const BasicBlock &b = w.program.block(id);
        Addr base = img.blockAddr(id);
        for (std::uint32_t k = 0; k < b.numInsts; ++k) {
            const Addr pc = base + instsToBytes(k);
            const StaticInst si = img.inst(pc);
            // The k-th instruction of block id sits at base + 4k.
            EXPECT_EQ(owningBlock(img, pc), id);
            EXPECT_EQ(si.cls, w.program.insts(id)[k]);
            if (k + 1 == b.numInsts)
                EXPECT_EQ(si.btype, b.branchType);
            else
                EXPECT_EQ(si.btype, BranchType::None);
        }
    }
    // The block bodies tile the image (this order needs no stubs).
    EXPECT_EQ(img.numInsts(), w.program.staticInsts());
}

TEST(CodeImage, BaselineNeedsNoStubsForChainedProgram)
{
    // hammockLoop was generated in layout-compatible order except
    // the hot arm, which requires the cold arm's jump only.
    SyntheticWorkload w = hammockLoop();
    CodeImage img(w.program, baselineOrder(w.program));
    EXPECT_EQ(img.numStubs(), 0u);
}

TEST(CodeImage, StubInsertedWhenFallthroughSeparated)
{
    CfgBuilder b("stub");
    BlockId a = b.addBlock(2);
    BlockId c = b.addBlock(2);
    BlockId d = b.addBlock(2);
    b.fallthrough(a, d); // a must be followed by d, but order a,c,d
    b.ret(c);
    b.ret(d);
    Program p = b.build(a);
    CodeImage img(p, {a, c, d});
    EXPECT_EQ(img.numStubs(), 1u);
    // The stub right after a jumps to d.
    Addr stub_pc = img.blockAddr(a) + p.block(a).sizeBytes();
    EXPECT_TRUE(isStub(img, stub_pc));
    EXPECT_EQ(img.inst(stub_pc).btype, BranchType::Jump);
    EXPECT_EQ(img.takenTarget(stub_pc), img.blockAddr(d));
}

TEST(CodeImage, CondPolarityFollowsAdjacency)
{
    CfgBuilder b("pol");
    BlockId c = b.addBlock(2);
    BlockId t = b.addBlock(2);
    BlockId f = b.addBlock(2);
    b.cond(c, t, f);
    b.ret(t);
    b.ret(f);
    Program p = b.build(c);

    // Order c,f,t: CFG fallthrough f is adjacent -> normal polarity.
    CodeImage normal(p, {c, f, t});
    EXPECT_TRUE(normal.normalPolarity(c));
    EXPECT_EQ(normal.takenTarget(normal.blockAddr(c) + 4),
              normal.blockAddr(t));

    // Order c,t,f: CFG target t adjacent -> inverted polarity.
    CodeImage inverted(p, {c, t, f});
    EXPECT_FALSE(inverted.normalPolarity(c));
    EXPECT_EQ(inverted.takenTarget(inverted.blockAddr(c) + 4),
              inverted.blockAddr(f));
}

TEST(CodeImage, CallContinuationKeptSequential)
{
    CfgBuilder b("call");
    BlockId m = b.addBlock(2);
    BlockId callee = b.addBlock(2);
    BlockId cont = b.addBlock(2);
    b.call(m, callee, cont);
    b.ret(callee);
    b.ret(cont);
    Program p = b.build(m);

    // Order m, callee, cont: continuation NOT adjacent -> stub.
    CodeImage img(p, {m, callee, cont});
    EXPECT_EQ(img.numStubs(), 1u);
    Addr ret_addr = img.seqAfter(m);
    EXPECT_TRUE(isStub(img, ret_addr));
    EXPECT_EQ(img.takenTarget(ret_addr), img.blockAddr(cont));
}

// ---- optimizer ----

TEST(Optimizer, ProducesPermutation)
{
    SyntheticWorkload w = generateWorkload(suiteParams("gzip"));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 50'000);
    auto order = optimizedOrder(w.program, prof);
    EXPECT_EQ(order.size(), w.program.numBlocks());
    std::set<BlockId> uniq(order.begin(), order.end());
    EXPECT_EQ(uniq.size(), order.size());
}

TEST(Optimizer, ReducesTakenFraction)
{
    // gcc is hammock-rich, so the aligned fraction is very visible;
    // loop back edges (unavoidably taken) put a floor under it.
    SyntheticWorkload w = generateWorkload(suiteParams("gcc"));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 100'000);
    CodeImage base(w.program, baselineOrder(w.program));
    CodeImage opt(w.program, optimizedOrder(w.program, prof));
    LayoutQuality qb = evaluateLayout(w.program, prof, base);
    LayoutQuality qo = evaluateLayout(w.program, prof, opt);
    // The whole point of the optimization: conditionals align
    // towards not-taken.
    EXPECT_LT(qo.takenFraction(), qb.takenFraction() - 0.1);
    EXPECT_LT(qo.takenFraction(), 0.40);
}

TEST(Optimizer, HotArmBecomesFallthrough)
{
    SyntheticWorkload w = hammockLoop();
    EdgeProfile prof = collectProfile(w.program, w.model, 3, 20'000);
    CodeImage opt(w.program, optimizedOrder(w.program, prof));
    // Block 0's hot successor (block 2) must be the fall-through,
    // i.e. polarity inverted relative to the CFG.
    EXPECT_FALSE(opt.normalPolarity(0));
}

// ---- OracleStream ----

TEST(Oracle, PcChainsAreContiguous)
{
    SyntheticWorkload w = hammockLoop();
    CodeImage img(w.program, baselineOrder(w.program));
    OracleStream oracle(img, w.model, kRefSeed);
    OracleInst prev = oracle.next();
    EXPECT_EQ(prev.pc, img.entryAddr());
    for (int i = 0; i < 5000; ++i) {
        OracleInst cur = oracle.next();
        ASSERT_EQ(cur.pc, prev.nextPc) << "at inst " << i;
        if (!prev.isBranch()) {
            ASSERT_EQ(cur.pc, prev.pc + kInstBytes);
        }
        prev = cur;
    }
}

TEST(Oracle, BranchRecordsConsistentWithImage)
{
    SyntheticWorkload w = generateWorkload(suiteParams("gzip"));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 50'000);
    CodeImage img(w.program, optimizedOrder(w.program, prof));
    OracleStream oracle(img, w.model, kRefSeed);
    for (int i = 0; i < 20000; ++i) {
        OracleInst oi = oracle.next();
        const StaticInst si = img.inst(oi.pc);
        ASSERT_EQ(si.btype, oi.btype);
        if (oi.btype == BranchType::CondDirect) {
            if (oi.taken)
                ASSERT_EQ(oi.nextPc, img.takenTarget(oi.pc));
            else
                ASSERT_EQ(oi.nextPc, oi.pc + kInstBytes);
        } else if (oi.btype == BranchType::Jump ||
                   oi.btype == BranchType::Call) {
            ASSERT_TRUE(oi.taken);
            ASSERT_EQ(oi.nextPc, img.takenTarget(oi.pc));
        }
    }
}

TEST(Oracle, Deterministic)
{
    SyntheticWorkload w = hammockLoop();
    CodeImage img(w.program, baselineOrder(w.program));
    OracleStream a(img, w.model, 5), b(img, w.model, 5);
    for (int i = 0; i < 2000; ++i) {
        OracleInst x = a.next();
        OracleInst y = b.next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.nextPc, y.nextPc);
    }
}

TEST(Oracle, StubJumpsAppearOnColdPath)
{
    // Force a layout with a stub on the frequent path and verify the
    // oracle emits the stub instruction.
    CfgBuilder b("stub2");
    BlockId a = b.addBlock(2);
    BlockId c = b.addBlock(2);
    BlockId d = b.addBlock(2);
    b.fallthrough(a, d);
    b.ret(c);
    b.ret(d);
    Program p = b.build(a);
    WorkloadModel m;
    CodeImage img(p, {a, c, d});

    OracleStream oracle(img, m, 1);
    oracle.next(); // a[0]
    oracle.next(); // a[1]
    OracleInst stub = oracle.next();
    EXPECT_TRUE(isStub(img, stub.pc));
    EXPECT_EQ(stub.btype, BranchType::Jump);
    EXPECT_TRUE(stub.taken);
    EXPECT_EQ(stub.nextPc, img.blockAddr(d));
}

TEST(Oracle, ReturnUsesLayoutReturnAddress)
{
    CfgBuilder b("callret");
    BlockId m = b.addBlock(2);
    BlockId callee = b.addBlock(2);
    BlockId cont = b.addBlock(2);
    b.call(m, callee, cont);
    b.ret(callee);
    b.ret(cont);
    Program p = b.build(m);
    WorkloadModel wm;
    CodeImage img(p, baselineOrder(p)); // m, callee, cont: stub!

    OracleStream oracle(img, wm, 1);
    oracle.next();                   // m[0]
    OracleInst call = oracle.next(); // the call
    EXPECT_EQ(call.btype, BranchType::Call);
    oracle.next();                   // callee[0]
    OracleInst ret = oracle.next();  // the return
    EXPECT_EQ(ret.btype, BranchType::Return);
    // Return lands on the stub right after the call.
    EXPECT_EQ(ret.nextPc, img.seqAfter(m));
    OracleInst stub = oracle.next();
    EXPECT_TRUE(isStub(img, stub.pc));
    EXPECT_EQ(stub.nextPc, img.blockAddr(cont));
}

// ---- OracleArena / OracleWindow ----

/**
 * Read @p win's first @p n positions across refills, keeping a tail
 * behind the read position as the processor keeps its ROB, and check
 * every field against the live generator: pc, nextPc (the next
 * entry's pc), class, branch type, taken bit, and the address of
 * every load/store. Counts the refills into @p refills.
 */
void
expectWindowMatchesLive(OracleWindow &win, const CodeImage &img,
                        const WorkloadModel &model, std::uint64_t n,
                        unsigned &refills)
{
    OracleStream live(img, model, kRefSeed);
    DataAddressStream ds(model.data(), kRefSeed ^ kDataStreamSeedSalt);
    std::uint64_t pos = 0, data = 0;
    refills = 0;
    for (;;) {
        const OracleView &v = win.view();
        ASSERT_LE(v.first, pos);
        ASSERT_EQ(v.base, img.baseAddr());
        for (; pos < v.last && pos < n; ++pos) {
            const OracleInst a = live.next();
            const std::size_t i = pos - v.first;
            const std::uint8_t mb = v.meta[i];
            ASSERT_EQ(a.pc, v.base + v.pcOff[i]) << "inst " << pos;
            ASSERT_EQ(a.nextPc, v.base + v.pcOff[i + 1])
                << "inst " << pos;
            ASSERT_EQ(a.cls, static_cast<InstClass>(mb & 0x07)) << pos;
            ASSERT_EQ(a.btype, static_cast<BranchType>((mb >> 3) & 0x07))
                << "inst " << pos;
            ASSERT_EQ(a.taken, (mb & kMetaTakenBit) != 0)
                << "inst " << pos;
            ASSERT_EQ(a.isBranch(), (mb & kMetaBranchBits) != 0) << pos;
            if (a.cls == InstClass::Load || a.cls == InstClass::Store) {
                ASSERT_GE(data, v.dataFirst);
                ASSERT_LT(data, v.dataLast) << "inst " << pos;
                ASSERT_EQ(kDataRegionBase + v.dataOff[data - v.dataFirst],
                          ds.next())
                    << "access " << data;
                ++data;
            }
        }
        if (pos >= n)
            return;
        ASSERT_TRUE(win.refill(pos - std::min<std::uint64_t>(pos, 300),
                               data - std::min<std::uint64_t>(data, 50)));
        ++refills;
    }
}

/** A preset placed on both layouts, built once per test binary. */
struct PlacedPreset
{
    SyntheticWorkload w;
    std::unique_ptr<CodeImage> base, opt;
};

const PlacedPreset &
placedPreset(const std::string &spec)
{
    static std::map<std::string, std::unique_ptr<PlacedPreset>> cache;
    std::unique_ptr<PlacedPreset> &p = cache[spec];
    if (!p) {
        p = std::make_unique<PlacedPreset>();
        p->w = buildBenchWorkload(spec);
        const EdgeProfile prof = collectProfile(
            p->w.program, p->w.model, kTrainSeed, 100'000);
        p->base = std::make_unique<CodeImage>(
            p->w.program, baselineOrder(p->w.program));
        p->opt = std::make_unique<CodeImage>(
            p->w.program, optimizedOrder(p->w.program, prof));
    }
    return *p;
}

/**
 * The encoding's tests, on each workload shape on both layouts: gzip
 * has almost no returns or indirect jumps, server has the most, and
 * stub jumps live on the optimized layout.
 */
class ArenaOnPreset
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
  protected:
    const SyntheticWorkload &
    work() const
    {
        return placedPreset(std::get<0>(GetParam())).w;
    }

    const CodeImage &
    image() const
    {
        const PlacedPreset &p = placedPreset(std::get<0>(GetParam()));
        return std::get<1>(GetParam()) ? *p.opt : *p.base;
    }
};

/**
 * The arena is defined as "exactly what the live stream produced":
 * every field a run reads from a window refilled from the arena
 * must be the live generator's value.
 */
TEST_P(ArenaOnPreset, PackedPathMatchesLiveFieldForField)
{
    const CodeImage &img = image();
    const std::uint64_t n = 30'000;
    OracleArena arena(img, work().model, kRefSeed, n);
    EXPECT_EQ(arena.size(), n);
    EXPECT_EQ(arena.seed(), kRefSeed);
    EXPECT_EQ(arena.image(), &img);
    EXPECT_GT(arena.bytes(), 0u);
    EXPECT_GT(arena.dataCount(), 0u);

    OracleWindow win(arena, 4'096);
    unsigned refills = 0;
    expectWindowMatchesLive(win, img, work().model, n, refills);
    EXPECT_GE(refills, 7u);
}

TEST_P(ArenaOnPreset, DataAddressesMatchLiveStream)
{
    const CodeImage &img = image();
    const std::uint64_t n = 10'000;
    OracleArena arena(img, work().model, kRefSeed, n);
    OracleWindow win(arena, 1'000);
    unsigned refills = 0;
    expectWindowMatchesLive(win, img, work().model, n, refills);
    EXPECT_GE(refills, 10u);

    // Every arena address, and nothing past them, reached the window.
    DataAddressStream ds(work().model.data(),
                         kRefSeed ^ kDataStreamSeedSalt);
    ASSERT_EQ(arena.dataStream().size(), arena.dataCount());
    for (std::uint64_t k = 0; k < arena.dataCount(); ++k)
        ASSERT_EQ(kDataRegionBase + arena.dataOff(k), ds.next())
            << "access " << k;
}

/**
 * A window refilled many times over is the same path as one whole
 * decode, whether it is refilled from an arena or from its private
 * decoder: positions keep their absolute indices across refills,
 * and the kept tail survives each move intact. At the arena's end
 * the window stops growing.
 */
TEST_P(ArenaOnPreset, RefillsContinueTheArenaPathExactly)
{
    const CodeImage &img = image();
    const std::uint64_t n = 20'000;
    OracleArena arena(img, work().model, kRefSeed, n);
    unsigned refills = 0;

    OracleWindow from_arena(arena, 1'000);
    expectWindowMatchesLive(from_arena, img, work().model, n, refills);
    EXPECT_GE(refills, 20u);
    while (from_arena.refill(from_arena.view().last - 10,
                             from_arena.view().dataLast)) {
    }
    EXPECT_EQ(from_arena.view().last, n);
    EXPECT_EQ(from_arena.view().dataLast, arena.dataCount());

    OracleWindow decoded(img, work().model, kRefSeed, 1'000);
    expectWindowMatchesLive(decoded, img, work().model, n, refills);
    EXPECT_GE(refills, 20u);
}

/**
 * The walker yields the live path run by run from both of its
 * sources: each run starts at the live stream's next pc, holds the
 * instructions up to the next committed branch, taken or not, and
 * counts their loads and stores. A run stops short of its branch only
 * at the end of a private chunk, where the next chunk continues it
 * seamlessly, or at the arena's end.
 */
TEST_P(ArenaOnPreset, WalkerYieldsTheLivePathBranchToBranch)
{
    const CodeImage &img = image();
    const std::uint64_t n = 20'000;
    OracleArena arena(img, work().model, kRefSeed, n);
    RunWalker from_arena(arena);
    RunWalker decoded(img, work().model, kRefSeed);
    for (RunWalker *walk : {&from_arena, &decoded}) {
        SCOPED_TRACE(walk->arena() ? "arena" : "private decoder");
        OracleStream live(img, work().model, kRefSeed);
        std::uint64_t pos = 0, chunk_cuts = 0;
        PathRun run;
        while (pos < n &&
               walk->next(run, std::numeric_limits<std::size_t>::max())) {
            ASSERT_GE(run.len, 1u);
            OracleInst oi;
            std::uint32_t accesses = 0;
            for (std::uint32_t k = 0; k < run.len; ++k, ++pos) {
                if (k > 0) {
                    ASSERT_FALSE(oi.isBranch()) << "inst " << pos - 1;
                }
                oi = live.next();
                ASSERT_EQ(oi.pc, img.baseAddr() + run.start +
                                     instsToBytes(k))
                    << "inst " << pos;
                accesses += oi.cls == InstClass::Load ||
                    oi.cls == InstClass::Store;
            }
            EXPECT_EQ(run.accesses, accesses) << "run ending " << pos;
            const CommittedBranch &br = run.branch;
            if (br.type == BranchType::None) {
                ASSERT_FALSE(oi.isBranch()) << "inst " << pos - 1;
                if (walk->arena()) {
                    ASSERT_EQ(pos, n);
                } else {
                    ASSERT_EQ(pos % RunWalker::kChunkInsts, 0u);
                    ++chunk_cuts;
                }
                continue;
            }
            ASSERT_EQ(br.pc, oi.pc) << "inst " << pos - 1;
            ASSERT_EQ(br.type, oi.btype) << "inst " << pos - 1;
            ASSERT_EQ(br.taken, oi.taken) << "inst " << pos - 1;
            ASSERT_EQ(br.target, oi.nextPc) << "inst " << pos - 1;
            ASSERT_EQ(img.baseAddr() + walk->nextOff(), oi.nextPc);
        }
        if (walk->arena()) {
            EXPECT_EQ(pos, n);
            EXPECT_FALSE(walk->next(run, 1));
        } else {
            EXPECT_GE(pos, n);
            EXPECT_GT(chunk_cuts, 0u);
        }
    }
}

/**
 * An arena's control part stores a bit per conditional and a target
 * per return or indirect jump, sized exactly: no shape needs more
 * than a quarter byte per instruction on either layout.
 */
TEST_P(ArenaOnPreset, ControlPartIsSizedExactlyUnderAQuarterBytePerInst)
{
    const CodeImage &img = image();
    const std::uint64_t n = 200'000;
    OracleArena arena(img, work().model, kRefSeed, n);
    const OracleStreams &s = arena.streams();

    std::uint64_t conds = 0, targets = 0, accesses = 0;
    OracleStream live(img, work().model, kRefSeed);
    for (std::uint64_t i = 0; i < n; ++i) {
        const OracleInst oi = live.next();
        conds += oi.btype == BranchType::CondDirect;
        targets += oi.btype == BranchType::Return ||
            oi.btype == BranchType::IndirectJump;
        accesses += oi.cls == InstClass::Load ||
            oi.cls == InstClass::Store;
    }
    EXPECT_EQ(s.insts, n);
    EXPECT_EQ(s.conds, conds);
    EXPECT_EQ(s.target.size(), targets);
    EXPECT_EQ(arena.dataCount(), accesses);
    EXPECT_EQ(arena.controlBytes(),
              8 * ((conds + 63) / 64) + 4 * targets);
    EXPECT_LE(double(arena.controlBytes()) / double(n), 0.25);
}

/**
 * Both layouts' arenas of one path length read one data stream,
 * drawn once whichever layout decodes first: it holds exactly the
 * longer layout's access count, 4 bytes each, rounded up to a whole
 * chunk, and both arenas read the live generator's addresses.
 */
TEST_P(ArenaOnPreset, SharedDataStreamHoldsTheLongerLayoutsAccesses)
{
    const PlacedPreset &p = placedPreset(std::get<0>(GetParam()));
    const bool opt_first = std::get<1>(GetParam());
    const std::uint64_t n = 200'000;
    auto data = std::make_shared<DataStream>(work().model.data(),
                                             kRefSeed);
    auto decode = [&](const CodeImage &img) {
        return std::make_unique<OracleArena>(img, work().model,
                                             kRefSeed, n, data);
    };
    auto first = decode(opt_first ? *p.opt : *p.base);
    auto second = decode(opt_first ? *p.base : *p.opt);
    EXPECT_EQ(&first->dataStream(), data.get());
    EXPECT_EQ(&second->dataStream(), data.get());

    const std::uint64_t longer =
        std::max(first->dataCount(), second->dataCount());
    const std::uint64_t chunk = DataStream::kChunkOffsets;
    EXPECT_EQ(data->size(), longer);
    EXPECT_EQ(data->bytes(), 4 * chunk * ((longer + chunk - 1) / chunk));
    EXPECT_LT(data->bytes() - 4 * longer, 4 * chunk);
    EXPECT_EQ(first->bytes(), first->controlBytes() + data->bytes());

    DataAddressStream ds(work().model.data(),
                         kRefSeed ^ kDataStreamSeedSalt);
    for (std::uint64_t k = 0; k < longer; ++k) {
        const std::uint32_t want =
            static_cast<std::uint32_t>(ds.next() - kDataRegionBase);
        for (const OracleArena *a : {first.get(), second.get()}) {
            if (k < a->dataCount()) {
                ASSERT_EQ(a->dataOff(k), want) << "access " << k;
            }
        }
    }

    // A window over the arena whose stream the other layout drew.
    OracleWindow win(*second, 1'000);
    unsigned refills = 0;
    expectWindowMatchesLive(win, *second->image(), work().model, n,
                            refills);
}

/** Slots of a BranchIndex over @p n modelled branches. */
std::size_t
indexSlots(std::size_t n)
{
    std::size_t slots = n ? 4 : 0;
    while (slots < 2 * n)
        slots *= 2;
    return slots;
}

/**
 * Format pins: the image holds 5 bytes per placed instruction (meta
 * byte + taken-target word), the meta padding and a 4-byte start
 * word per block; the program one BasicBlock per block plus its
 * flat class and target arrays; the model one slot per *modelled*
 * branch plus its index. Each is exact, so every vector is sized
 * exactly.
 */
TEST_P(ArenaOnPreset, WorkloadFormatIsExactlySized)
{
    const CodeImage &img = image();
    const Program &prog = work().program;
    const WorkloadModel &model = work().model;
    EXPECT_EQ(img.bytes(), 5 * img.numInsts() + kMetaPadBytes +
                               4 * prog.numBlocks());

    std::size_t targets = 0, indirect_blocks = 0;
    for (const BasicBlock &b : prog.blocks()) {
        targets += b.numTargets;
        indirect_blocks += b.branchType == BranchType::IndirectJump;
    }
    EXPECT_EQ(prog.bytes(), prog.numBlocks() * sizeof(BasicBlock) +
                                prog.staticInsts() * sizeof(InstClass) +
                                targets * sizeof(BlockId));

    // Every indirect jump of these shapes is modelled, with one
    // weight per target.
    ASSERT_EQ(model.numIndirectModels(), indirect_blocks);
    const std::size_t entry = 2 * sizeof(std::uint32_t);
    EXPECT_EQ(model.bytes(),
              model.numCondModels() * sizeof(CondModel) +
                  indexSlots(model.numCondModels()) * entry +
                  model.numIndirectModels() * sizeof(IndirectModel) +
                  indexSlots(model.numIndirectModels()) * entry +
                  targets * sizeof(double));
    if (std::get<0>(GetParam()) == "thrash") {
        // 4,034 blocks, one modelled branch.
        EXPECT_EQ(model.numCondModels(), 1u);
        EXPECT_LT(model.bytes(), 1024u);
    }
}

/**
 * A PlacedWorkload holds its program, its model and the images
 * placed so far, and nothing else: each shape stays under 26 bytes
 * per static instruction plus 4 KiB with both layouts placed.
 */
TEST_P(ArenaOnPreset, PlacedWorkloadBytesStayUnderBound)
{
    const bool opt = std::get<1>(GetParam());
    PlacedWorkload w(std::get<0>(GetParam()));
    const std::size_t unplaced =
        sizeof(PlacedWorkload) + w.program().bytes() + w.model().bytes();
    EXPECT_EQ(w.bytes(), unplaced);
    const std::size_t first = sizeof(CodeImage) + w.image(opt).bytes();
    EXPECT_EQ(w.bytes(), unplaced + first);
    const std::size_t second = sizeof(CodeImage) + w.image(!opt).bytes();
    EXPECT_EQ(w.bytes(), unplaced + first + second);
    EXPECT_LT(w.bytes(), 26 * w.program().staticInsts() + 4096)
        << w.name();
}

/** A stream drawn for another seed is refused, not misread. */
TEST(OracleArena, RefusesADataStreamOfAnotherSeed)
{
    const PlacedPreset &p = placedPreset("gzip");
    auto data = std::make_shared<DataStream>(p.w.model.data(),
                                             kRefSeed + 1);
    EXPECT_THROW(OracleArena(*p.base, p.w.model, kRefSeed, 1'000, data),
                 std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ArenaOnPreset,
    ::testing::Combine(::testing::Values("gzip", "server", "phased",
                                         "thrash", "loops"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ArenaOnPreset::ParamType> &info) {
        return std::get<0>(info.param) +
            (std::get<1>(info.param) ? "_opt" : "_base");
    });

class LayoutOnSuite : public ::testing::TestWithParam<std::string>
{};

TEST_P(LayoutOnSuite, OracleRunsOnBothLayouts)
{
    SyntheticWorkload w = generateWorkload(suiteParams(GetParam()));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 50'000);
    for (bool opt : {false, true}) {
        CodeImage img(w.program,
                      opt ? optimizedOrder(w.program, prof)
                          : baselineOrder(w.program));
        OracleStream oracle(img, w.model, kRefSeed);
        OracleInst prev = oracle.next();
        for (int i = 0; i < 20000; ++i) {
            OracleInst cur = oracle.next();
            ASSERT_EQ(cur.pc, prev.nextPc);
            ASSERT_TRUE(img.contains(cur.pc));
            prev = cur;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, LayoutOnSuite,
    ::testing::Values("gzip", "gcc", "perlbmk", "twolf"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---- STC layout variant ----

TEST(StcLayout, ProducesPermutation)
{
    SyntheticWorkload w = generateWorkload(suiteParams("vpr"));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 50'000);
    auto order = stcOrder(w.program, prof);
    EXPECT_EQ(order.size(), w.program.numBlocks());
    std::set<BlockId> uniq(order.begin(), order.end());
    EXPECT_EQ(uniq.size(), order.size());
    // Entry block leads the hot chain.
    EXPECT_EQ(order.front(), w.program.entry());
}

TEST(StcLayout, ImprovesOverBaseline)
{
    SyntheticWorkload w = generateWorkload(suiteParams("gcc"));
    EdgeProfile prof = collectProfile(w.program, w.model,
                                      kTrainSeed, 100'000);
    CodeImage base(w.program, baselineOrder(w.program));
    CodeImage stc(w.program, stcOrder(w.program, prof));
    EXPECT_LT(evaluateLayout(w.program, prof, stc).takenFraction(),
              evaluateLayout(w.program, prof, base).takenFraction());
}
