/**
 * @file
 * Tests for the branch predictor library: table predictors, the
 * 2bcgskew and perceptron predictors, the BTB, and the RAS.
 */

#include <gtest/gtest.h>

#include <memory>

#include "bpred/btb.hh"
#include "bpred/direction_pred.hh"
#include "bpred/gskew.hh"
#include "bpred/history.hh"
#include "bpred/perceptron.hh"
#include "bpred/predictor_tables.hh"
#include "bpred/ras.hh"
#include "util/rng.hh"

using namespace sfetch;

// ---- GlobalHistory ----

TEST(GlobalHistory, PushShiftsNewestIntoLsb)
{
    GlobalHistory h;
    h.push(true);
    h.push(false);
    h.push(true);
    EXPECT_EQ(h.value(), 0b101u);
    EXPECT_EQ(h.low(2), 0b01u);
}

TEST(GlobalHistory, CopyAndClear)
{
    GlobalHistory a, b;
    a.push(true);
    b.copyFrom(a);
    EXPECT_EQ(b.value(), 1u);
    b.clear();
    EXPECT_EQ(b.value(), 0u);
}

// ---- table predictors ----

namespace
{

/** Train a predictor on a repeating direction pattern at one pc. */
double
accuracyOnPattern(DirectionPredictor &pred,
                  const std::vector<bool> &pattern, int reps,
                  Addr pc = 0x4000)
{
    GlobalHistory h;
    int correct = 0, total = 0;
    for (int r = 0; r < reps; ++r) {
        for (bool taken : pattern) {
            bool p = pred.predict(pc, h.value());
            if (r >= reps / 2) { // measure the second half
                correct += (p == taken);
                ++total;
            }
            pred.update(pc, h.value(), taken);
            h.push(taken);
        }
    }
    return double(correct) / double(total);
}

} // namespace

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor p(1024);
    double acc = accuracyOnPattern(
        p, {true, true, true, true, true, true, true, false}, 50);
    EXPECT_GT(acc, 0.80); // always-taken guess gets 7/8
}

TEST(Bimodal, CannotLearnAlternation)
{
    BimodalPredictor p(1024);
    double acc = accuracyOnPattern(p, {true, false}, 100);
    EXPECT_LT(acc, 0.70);
}

TEST(Gshare, LearnsAlternation)
{
    GsharePredictor p(4096, 8);
    double acc = accuracyOnPattern(p, {true, false}, 100);
    EXPECT_GT(acc, 0.95);
}

TEST(Gshare, LearnsHistoryFunction)
{
    // Outcome = history bit 2 (a 3-cycle delayed copy).
    GsharePredictor p(16384, 10);
    GlobalHistory h;
    Pcg32 rng(1);
    int correct = 0, total = 0;
    for (int i = 0; i < 6000; ++i) {
        bool taken = (i < 3) ? rng.nextBool(0.5)
                             : ((h.value() >> 2) & 1);
        bool pred = p.predict(0x100, h.value());
        if (i > 3000) {
            correct += (pred == taken);
            ++total;
        }
        p.update(0x100, h.value(), taken);
        h.push(taken);
    }
    EXPECT_GT(double(correct) / total, 0.95);
}

TEST(Local, LearnsShortPeriodicPattern)
{
    LocalPredictor p;
    double acc = accuracyOnPattern(
        p, {true, true, true, false}, 200);
    EXPECT_GT(acc, 0.95);
}

TEST(Gskew, LearnsBiasAndHistory)
{
    GskewConfig cfg;
    cfg.entriesPerBank = 4096;
    GskewPredictor p(cfg);
    EXPECT_GT(accuracyOnPattern(p, {true, false}, 100), 0.9);
    GskewPredictor q(cfg);
    EXPECT_GT(accuracyOnPattern(
                  q, {true, true, true, true, false}, 100), 0.9);
}

TEST(Gskew, StorageBudget)
{
    GskewPredictor p; // 4 x 32K x 2 bits
    EXPECT_EQ(p.storageBits(), 4ull * 32768 * 2);
}

TEST(Perceptron, LearnsLinearlySeparableFunction)
{
    // Outcome = history bit 0 (last outcome repeated).
    PerceptronPredictor p;
    double acc = accuracyOnPattern(
        p, {true, true, false, false}, 200);
    EXPECT_GT(acc, 0.9);
}

TEST(Perceptron, LearnsLongHistoryLoop)
{
    // A loop of 20 iterations: only a long-history predictor can
    // catch the exit.
    PerceptronPredictor p;
    std::vector<bool> pattern(20, true);
    pattern.back() = false;
    double acc = accuracyOnPattern(p, pattern, 120);
    EXPECT_GT(acc, 0.97);
}

TEST(Perceptron, ThresholdFollowsJimenezFormula)
{
    PerceptronConfig cfg;
    cfg.globalBits = 40;
    cfg.localBits = 14;
    PerceptronPredictor p(cfg);
    EXPECT_EQ(p.threshold(),
              static_cast<int>(1.93 * 54 + 14 + 0.5));
}

TEST(DirectionPredictors, DistinctBranchesDoNotDestroyEachOther)
{
    // Two branches with opposite fixed behaviour must both be
    // predictable by a pc-indexed predictor.
    BimodalPredictor p(4096);
    for (int i = 0; i < 50; ++i) {
        p.update(0x1000, 0, true);
        p.update(0x2000, 0, false);
    }
    EXPECT_TRUE(p.predict(0x1000, 0));
    EXPECT_FALSE(p.predict(0x2000, 0));
}

// ---- BTB ----

TEST(Btb, MissThenHitAfterUpdate)
{
    Btb btb;
    EXPECT_FALSE(btb.lookup(0x1000).hit);
    btb.update(0x1000, 0x2000, BranchType::Jump);
    BtbEntry e = btb.lookup(0x1000);
    EXPECT_TRUE(e.hit);
    EXPECT_EQ(e.target, 0x2000u);
    EXPECT_EQ(e.type, BranchType::Jump);
}

TEST(Btb, UpdateOverwritesTarget)
{
    Btb btb;
    btb.update(0x1000, 0x2000, BranchType::IndirectJump);
    btb.update(0x1000, 0x3000, BranchType::IndirectJump);
    EXPECT_EQ(btb.lookup(0x1000).target, 0x3000u);
}

TEST(Btb, SetConflictEviction)
{
    BtbConfig cfg;
    cfg.entries = 8;
    cfg.assoc = 2; // 4 sets
    Btb btb(cfg);
    // Three branches mapping to the same set (stride = 4 insts * 4
    // sets = 64 bytes).
    btb.update(0x0000, 0xA, BranchType::Jump);
    btb.update(0x0040, 0xB, BranchType::Jump);
    btb.lookup(0x0000); // refresh
    btb.update(0x0080, 0xC, BranchType::Jump);
    EXPECT_TRUE(btb.lookup(0x0000).hit);
    EXPECT_FALSE(btb.lookup(0x0040).hit);
    EXPECT_TRUE(btb.lookup(0x0080).hit);
}

// ---- LruTable (shared by the BTB and the FTB) ----

namespace
{

struct Val
{
    int v = 0;
    Val() = default;
    explicit Val(int x) : v(x) {}
};

} // namespace

TEST(LruTable, FillsInvalidWaysFirstRefreshesInPlaceThenEvictsLru)
{
    // One 4-way set: every key collides.
    LruTable<Val> t(LruTableConfig{4, 4});
    t.update(0x0, 1);
    t.update(0x4, 2);
    t.update(0x8, 3);
    t.update(0x0, 10); // tag hit: refreshed in place, no new way
    // A way is still invalid, so it is filled although 0x4 is the
    // least recently used valid way.
    t.update(0xC, 4);
    EXPECT_EQ(t.lookup(0x0).v, 10);
    EXPECT_EQ(t.lookup(0x4).v, 2);
    EXPECT_EQ(t.lookup(0x8).v, 3);
    EXPECT_EQ(t.lookup(0xC).v, 4);

    // All ways valid; 0x0 then 0x4 were used least recently. Using
    // 0x0 again leaves 0x4 the LRU way, which the newcomer evicts.
    EXPECT_TRUE(t.lookup(0x0).hit);
    t.update(0x10, 5);
    EXPECT_FALSE(t.lookup(0x4).hit);
    EXPECT_TRUE(t.lookup(0x0).hit);
    EXPECT_TRUE(t.lookup(0x8).hit);
    EXPECT_TRUE(t.lookup(0xC).hit);
    EXPECT_EQ(t.lookup(0x10).v, 5);
    EXPECT_EQ(t.lookups(), 10u);
    EXPECT_EQ(t.hits(), 9u);
}

// ---- RAS ----

TEST(Ras, PushPopLifo)
{
    ReturnAddressStack ras(8);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(Ras, WrapsAroundCapacity)
{
    ReturnAddressStack ras(4);
    for (Addr a = 0; a < 6; ++a)
        ras.push(0x1000 + a * 4);
    // The two oldest were overwritten; the newest four pop fine.
    EXPECT_EQ(ras.pop(), 0x1014u);
    EXPECT_EQ(ras.pop(), 0x1010u);
    EXPECT_EQ(ras.pop(), 0x100Cu);
    EXPECT_EQ(ras.pop(), 0x1008u);
}

TEST(Ras, CheckpointRestoresTopAndIndex)
{
    // The paper keeps a shadow of the stack pointer and the top of
    // stack only; deeper wrong-path corruption is not repairable
    // (that is the hardware design, not a bug).
    ReturnAddressStack ras(8);
    ras.push(0x100);
    ras.push(0x200);
    auto cp = ras.save();
    ras.pop();
    ras.push(0xBAD); // overwrites the 0x200 slot
    ras.restore(cp);
    EXPECT_EQ(ras.top(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u); // below checkpoint: untouched
}

TEST(Ras, CheckpointRepairsOverwrittenTop)
{
    ReturnAddressStack ras(8);
    ras.push(0x100);
    auto cp = ras.save();
    ras.pop();
    ras.push(0xBAD); // overwrites the 0x100 slot
    ras.restore(cp);
    EXPECT_EQ(ras.pop(), 0x100u);
}
