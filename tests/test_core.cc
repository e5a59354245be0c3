/**
 * @file
 * Tests for the core module: stream descriptors, commit-side stream
 * building (including partial streams), the cascaded next stream
 * predictor, and the stream fetch engine.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/stream_builder.hh"
#include "core/stream_engine.hh"
#include "isa/cfg_builder.hh"
#include "layout/code_image.hh"

using namespace sfetch;

// ---- StreamDescriptor ----

TEST(StreamDescriptor, TerminatorPc)
{
    StreamDescriptor s;
    s.start = 0x1000;
    s.lenInsts = 5;
    EXPECT_EQ(s.terminatorPc(), 0x1000u + 16);
}

TEST(StreamDescriptor, Equality)
{
    StreamDescriptor a{0x1000, 5, BranchType::Jump, 0x2000};
    StreamDescriptor b = a;
    EXPECT_TRUE(a == b);
    b.lenInsts = 6;
    EXPECT_FALSE(a == b);
}

// ---- StreamBuilder ----

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

TEST(StreamBuilder, StreamEndsAtTakenBranch)
{
    std::vector<StreamDescriptor> streams;
    StreamBuilder sb(0x1000, 64,
                     [&](const StreamDescriptor &s, bool) {
                         streams.push_back(s);
                     });
    // Not-taken branch at 0x1008: stream continues.
    sb.onBranch(branch(0x1008, false, 0));
    EXPECT_TRUE(streams.empty());
    // Taken branch at 0x1014 -> 0x3000: stream completes.
    sb.onBranch(branch(0x1014, true, 0x3000));
    ASSERT_EQ(streams.size(), 1u);
    EXPECT_EQ(streams[0].start, 0x1000u);
    EXPECT_EQ(streams[0].lenInsts, 6u); // 0x1000..0x1014 inclusive
    EXPECT_EQ(streams[0].next, 0x3000u);
    EXPECT_EQ(sb.currentStart(), 0x3000u);
}

TEST(StreamBuilder, MultipleNotTakenBranchesAbsorbed)
{
    std::vector<StreamDescriptor> streams;
    StreamBuilder sb(0x1000, 64,
                     [&](const StreamDescriptor &s, bool) {
                         streams.push_back(s);
                     });
    sb.onBranch(branch(0x1004, false, 0));
    sb.onBranch(branch(0x100C, false, 0));
    sb.onBranch(branch(0x1020, true, 0x5000));
    ASSERT_EQ(streams.size(), 1u);
    EXPECT_EQ(streams[0].lenInsts, 9u);
}

TEST(StreamBuilder, SplitsOverlongStreams)
{
    std::vector<StreamDescriptor> streams;
    StreamBuilder sb(0x1000, 8,
                     [&](const StreamDescriptor &s, bool) {
                         streams.push_back(s);
                     });
    // Taken branch 20 instructions downstream; cap is 8.
    sb.onBranch(branch(0x1000 + instsToBytes(19), true, 0x8000));
    ASSERT_EQ(streams.size(), 3u);
    EXPECT_EQ(streams[0].lenInsts, 8u);
    EXPECT_EQ(streams[0].endType, BranchType::None);
    EXPECT_EQ(streams[0].next, 0x1000u + instsToBytes(8));
    EXPECT_EQ(streams[1].lenInsts, 8u);
    EXPECT_EQ(streams[2].lenInsts, 4u);
    EXPECT_EQ(streams[2].next, 0x8000u);
}

TEST(StreamBuilder, MispredictFlagAppliesToNextStream)
{
    std::vector<bool> flags;
    StreamBuilder sb(0x1000, 64,
                     [&](const StreamDescriptor &, bool m) {
                         flags.push_back(m);
                     });
    sb.onBranch(branch(0x1004, true, 0x2000));
    sb.onMispredict();
    sb.onBranch(branch(0x2008, true, 0x1000));
    sb.onBranch(branch(0x1004, true, 0x2000));
    ASSERT_EQ(flags.size(), 3u);
    EXPECT_FALSE(flags[0]);
    EXPECT_TRUE(flags[1]);
    EXPECT_FALSE(flags[2]);
}

TEST(StreamBuilder, PartialStreamAfterRedirect)
{
    std::vector<StreamDescriptor> streams;
    StreamBuilder sb(0x1000, 64,
                     [&](const StreamDescriptor &s, bool) {
                         streams.push_back(s);
                     });
    // Redirect lands mid-stream at 0x1010; commit continues to the
    // taken branch at 0x1020.
    sb.onRedirect(0x1010);
    sb.onBranch(branch(0x1020, true, 0x4000));
    ASSERT_EQ(streams.size(), 2u);
    // Full stream from 0x1000 plus the partial one from 0x1010.
    EXPECT_EQ(streams[0].start, 0x1000u);
    EXPECT_EQ(streams[1].start, 0x1010u);
    EXPECT_EQ(streams[1].lenInsts, 5u);
    EXPECT_EQ(streams[1].next, 0x4000u);
    EXPECT_EQ(sb.partialStreams(), 1u);
}

TEST(StreamBuilder, LengthHistogramTracksStreams)
{
    StreamBuilder sb(0x1000, 64, [](const StreamDescriptor &, bool) {});
    sb.onBranch(branch(0x100C, true, 0x1000));
    sb.onBranch(branch(0x100C, true, 0x1000));
    EXPECT_EQ(sb.streamsEmitted(), 2u);
    EXPECT_DOUBLE_EQ(sb.lengthHistogram().mean(), 4.0);
}

// ---- NextStreamPredictor ----

TEST(Nsp, MissBeforeTraining)
{
    NextStreamPredictor nsp;
    EXPECT_FALSE(nsp.predict(0x1000).hit);
}

TEST(Nsp, HitAfterCommit)
{
    NextStreamPredictor nsp;
    StreamDescriptor s{0x1000, 12, BranchType::CondDirect, 0x2000};
    nsp.commitStream(s, false);
    StreamPrediction p = nsp.predict(0x1000);
    ASSERT_TRUE(p.hit);
    EXPECT_EQ(p.lenInsts, 12u);
    EXPECT_EQ(p.next, 0x2000u);
    EXPECT_EQ(p.endType, BranchType::CondDirect);
}

TEST(Nsp, HysteresisProtectsResidentData)
{
    NextStreamPredictor nsp;
    StreamDescriptor a{0x1000, 12, BranchType::CondDirect, 0x2000};
    StreamDescriptor b{0x1000, 20, BranchType::CondDirect, 0x3000};
    // Establish `a` strongly.
    for (int i = 0; i < 4; ++i)
        nsp.commitStream(a, false);
    // One conflicting observation must not flip the entry.
    nsp.commitStream(b, false);
    EXPECT_EQ(nsp.predict(0x1000).next, 0x2000u);
    // Repeated conflicts eventually replace it.
    for (int i = 0; i < 4; ++i)
        nsp.commitStream(b, false);
    EXPECT_EQ(nsp.predict(0x1000).next, 0x3000u);
}

TEST(Nsp, PathTableDisambiguatesOverlappingStreams)
{
    // The same start address continues differently depending on the
    // path — the property that lets the predictor hold overlapping
    // streams (Section 3.2).
    NextStreamPredictor nsp;
    StreamDescriptor s_a{0x5000, 8, BranchType::CondDirect, 0x6000};
    StreamDescriptor s_b{0x5000, 16, BranchType::CondDirect, 0x7000};

    auto train_path = [&](Addr p1, Addr p2,
                          const StreamDescriptor &s) {
        // Recreate the commit path then train. (commitStream pushes
        // the trained stream itself afterwards.)
        nsp.commitStream(StreamDescriptor{p1, 4,
                                          BranchType::Jump, p2},
                         false);
        nsp.commitStream(StreamDescriptor{p2, 4,
                                          BranchType::Jump, s.start},
                         false);
        nsp.commitStream(s, true); // mispredicted: upgrade to T2
    };
    for (int i = 0; i < 6; ++i) {
        train_path(0x100, 0x200, s_a);
        train_path(0x300, 0x400, s_b);
    }

    // Now predict with matching speculative paths.
    nsp.recoverHistory();
    // The committed path currently ends ...0x300,0x400,0x5000(b);
    // rebuild a speculative path for the A variant:
    nsp.specPush(0x100);
    nsp.specPush(0x200);
    // (path table may or may not hit depending on fold; at minimum
    // the first table returns one of the two variants)
    StreamPrediction p = nsp.predict(0x5000);
    EXPECT_TRUE(p.hit);
}

TEST(Nsp, RecoverHistoryMakesPredictionsRepeatable)
{
    NextStreamPredictor nsp;
    StreamDescriptor s{0x1000, 8, BranchType::Jump, 0x2000};
    for (int i = 0; i < 3; ++i)
        nsp.commitStream(s, true);
    nsp.recoverHistory();
    StreamPrediction p1 = nsp.predict(0x1000);
    // Speculative pollution...
    for (int i = 0; i < 20; ++i)
        nsp.specPush(0xAB00 + 4 * i);
    nsp.recoverHistory();
    StreamPrediction p2 = nsp.predict(0x1000);
    EXPECT_EQ(p1.hit, p2.hit);
    EXPECT_EQ(p1.fromPathTable, p2.fromPathTable);
    EXPECT_EQ(p1.next, p2.next);
}

TEST(Nsp, StatsAccumulate)
{
    NextStreamPredictor nsp;
    nsp.predict(0x100);
    StreamDescriptor s{0x100, 4, BranchType::Jump, 0x200};
    nsp.commitStream(s, false);
    nsp.predict(0x100);
    StatSet st = nsp.stats();
    EXPECT_DOUBLE_EQ(st.get("nsp.lookups"), 2.0);
    EXPECT_DOUBLE_EQ(st.get("nsp.misses"), 1.0);
    EXPECT_GT(st.get("nsp.hit_rate"), 0.0);
}

TEST(Nsp, StorageWithinPaperBudget)
{
    NextStreamPredictor nsp; // 1K + 6K entries
    // Table 2 keeps total predictor budgets around 45KB.
    EXPECT_LT(nsp.storageBits() / 8, 70u << 10);
    EXPECT_GT(nsp.storageBits() / 8, 20u << 10);
}

// ---- CascadedPredictor ablations ----

TEST(CascadedPredictor, PathTableOffNeverUpgrades)
{
    CascadedConfig cfg = StreamPayload::kPaperConfig;
    cfg.pathTableEnabled = false;
    NextStreamPredictor off(cfg);
    NextStreamPredictor on;
    for (Addr a = 0x1000; a < 0x1400; a += 0x40) {
        StreamDescriptor s{a, 16, BranchType::CondDirect, a + 0x40};
        for (NextStreamPredictor *p : {&off, &on}) {
            p->commitStream(s, true);
            p->commitStream(s, true);
        }
    }
    EXPECT_GT(on.upgrades(), 0u);
    EXPECT_EQ(off.upgrades(), 0u);
    off.recoverHistory();
    for (Addr a = 0x1000; a < 0x1400; a += 0x40) {
        StreamPrediction p = off.predict(a);
        EXPECT_TRUE(p.hit);
        EXPECT_FALSE(p.fromPathTable);
        off.specPush(a);
    }
    EXPECT_DOUBLE_EQ(off.stats().get("nsp.second_hits"), 0.0);
}

/**
 * Without the path table the second table is not built, so storage
 * counts the first table alone: 20 tag bits, the payload and the
 * counter per entry.
 */
TEST(CascadedPredictor, PathTableOffStoresTheFirstTableOnly)
{
    CascadedConfig cfg = StreamPayload::kPaperConfig;
    const std::uint64_t per_entry =
        20 + StreamPayload::kPayloadBits + cfg.counterBits;
    EXPECT_EQ(NextStreamPredictor(cfg).storageBits(),
              (cfg.firstEntries + cfg.secondEntries) * per_entry);
    cfg.pathTableEnabled = false;
    EXPECT_EQ(NextStreamPredictor(cfg).storageBits(),
              cfg.firstEntries * per_entry);
    // The single_table ablation's geometry: 8K entries, 4-way.
    cfg.firstEntries = 8192;
    cfg.firstAssoc = 4;
    EXPECT_EQ(NextStreamPredictor(cfg).storageBits(), 8192 * per_entry);
}

TEST(CascadedPredictor, OneBitCountersReplaceOnFirstConflict)
{
    CascadedConfig cfg = StreamPayload::kPaperConfig;
    cfg.counterBits = 1;
    NextStreamPredictor nsp(cfg);
    StreamDescriptor a{0x1000, 12, BranchType::CondDirect, 0x2000};
    StreamDescriptor b{0x1000, 20, BranchType::CondDirect, 0x3000};
    for (int i = 0; i < 4; ++i)
        nsp.commitStream(a, false);
    // No hysteresis: one conflicting observation takes the entry
    // (the 2-bit Nsp.HysteresisProtectsResidentData keeps `a`).
    nsp.commitStream(b, false);
    EXPECT_EQ(nsp.predict(0x1000).next, 0x3000u);
}

// ---- StreamFetchEngine ----

namespace
{

struct StreamFixture
{
    Program prog;
    std::unique_ptr<CodeImage> img;
    MemoryConfig mc;
    std::unique_ptr<MemoryHierarchy> mem;
    StreamConfig cfg;

    StreamFixture() : prog(makeProgram())
    {
        img = std::make_unique<CodeImage>(prog, baselineOrder(prog));
        mem = std::make_unique<MemoryHierarchy>(mc);
        for (Addr a = img->baseAddr(); a < img->endAddr(); a += 16)
            mem->accessInst(a);
    }

    static Program
    makeProgram()
    {
        CfgBuilder b("s");
        BlockId b0 = b.addBlock(6);
        BlockId b1 = b.addBlock(4);
        BlockId b2 = b.addBlock(5);
        b.cond(b0, b2, b1);      // mostly not taken
        b.fallthrough(b1, b2);
        b.jump(b2, b0);          // loop
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

TEST(StreamEngine, SequentialFallbackFromColdPredictor)
{
    StreamFixture f;
    StreamFetchEngine e(f.cfg, *f.img, f.mem.get());
    FetchBundle out;
    for (Cycle t = 1; t < 40 && out.empty(); ++t)
        e.fetchCycle(t, 8, out);
    // One sequential run per cycle, from the entry.
    ASSERT_EQ(out.numRuns(), 1u);
    EXPECT_EQ(out.run(0).start, f.img->entryAddr());
}

TEST(StreamEngine, PredictedStreamDrivesFetch)
{
    StreamFixture f;
    StreamFetchEngine e(f.cfg, *f.img, f.mem.get());
    // Train: stream b0..b1 (NT cond) .. b2 end (jump taken).
    Addr jump_pc = f.img->blockAddr(2) + instsToBytes(4);
    for (int i = 0; i < 3; ++i) {
        CommittedBranch nt;
        nt.pc = f.img->blockAddr(0) + instsToBytes(5);
        nt.type = BranchType::CondDirect;
        nt.taken = false;
        nt.target = nt.pc + 4;
        e.trainCommit(nt);
        CommittedBranch tk;
        tk.pc = jump_pc;
        tk.type = BranchType::Jump;
        tk.taken = true;
        tk.target = f.img->entryAddr();
        e.trainCommit(tk);
    }
    fetchFrom(e, f.img->entryAddr());

    // The whole 15-inst stream should be fetched across cycles with
    // contiguous pcs, then wrap to the entry again (next stream).
    std::vector<Addr> all;
    for (Cycle t = 10; t < 60 && all.size() < 16; ++t) {
        FetchBundle out;
        e.fetchCycle(t, 8, out);
        appendPcs(out, all);
    }
    ASSERT_GE(all.size(), 16u);
    for (unsigned i = 0; i < 15; ++i)
        EXPECT_EQ(all[i], f.img->entryAddr() + instsToBytes(i));
    EXPECT_EQ(all[15], f.img->entryAddr()); // next stream start
    EXPECT_GT(e.predictor().stats().get("nsp.lookups"), 0.0);
}

TEST(StreamEngine, RedirectStartsPartialStream)
{
    StreamFixture f;
    StreamFetchEngine e(f.cfg, *f.img, f.mem.get());
    ResolvedBranch rb;
    rb.pc = f.img->blockAddr(0) + instsToBytes(5);
    rb.type = BranchType::CondDirect;
    rb.taken = true;
    rb.target = f.img->blockAddr(2);
    e.redirect(rb);
    FetchBundle out;
    for (Cycle t = 1; t < 40 && out.empty(); ++t)
        e.fetchCycle(t, 8, out);
    ASSERT_GE(out.size(), 1u);
    EXPECT_EQ(out.run(0).start, f.img->blockAddr(2));
}

TEST(StreamEngine, StatsExposeStreamLengths)
{
    StreamFixture f;
    StreamFetchEngine e(f.cfg, *f.img, f.mem.get());
    CommittedBranch tk;
    tk.pc = f.img->blockAddr(2) + instsToBytes(4);
    tk.type = BranchType::Jump;
    tk.taken = true;
    tk.target = f.img->entryAddr();
    e.trainCommit(tk);
    StatSet s = e.stats();
    EXPECT_DOUBLE_EQ(s.get("stream.commit_streams"), 1.0);
    EXPECT_DOUBLE_EQ(s.get("stream.avg_commit_len"), 15.0);
}
