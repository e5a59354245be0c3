/**
 * @file
 * Cross-module property tests: invariants that must hold for every
 * suite workload, layout, and architecture — placement totality,
 * oracle/image agreement, predictor learnability across bias levels,
 * end-to-end conservation laws of the processor model, and the
 * front-end checker: a per-instruction reference, independent of the
 * processor's committed-path window, for its oracle verify.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>

#include "bpred/gskew.hh"
#include "bpred/perceptron.hh"
#include "layout/layout_opt.hh"
#include "layout/oracle.hh"
#include "pipeline/processor.hh"
#include "sim/engine_registry.hh"
#include "sim/experiment.hh"
#include "sim/workload_cache.hh"
#include "workload/workload_registry.hh"
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

        // Which block body holds each pc, from the program's block
        // sizes and the image's block addresses; bodies never
        // overlap.
        const Program &prog = w.program;
        std::vector<BlockId> owner(img.numInsts(), kNoBlock);
        for (BlockId id = 0; id < prog.numBlocks(); ++id) {
            const std::size_t first =
                (img.blockAddr(id) - img.baseAddr()) / kInstBytes;
            for (std::uint32_t k = 0; k < prog.block(id).numInsts; ++k) {
                ASSERT_LT(first + k, owner.size());
                ASSERT_EQ(owner[first + k], kNoBlock);
                owner[first + k] = id;
            }
        }

        // Each instruction of block b at blockAddr(b) + 4k carries
        // b's k-th class, and its terminator the block's branch type
        // and target; every other pc is a stub jump into the block
        // it bridges to.
        std::uint64_t stubs_seen = 0;
        for (Addr pc = img.baseAddr(); pc < img.endAddr();
             pc += kInstBytes) {
            const std::size_t i = (pc - img.baseAddr()) / kInstBytes;
            const StaticInst si = img.inst(pc);
            if (owner[i] == kNoBlock) {
                ++stubs_seen;
                EXPECT_EQ(si.cls, InstClass::Branch);
                EXPECT_EQ(si.btype, BranchType::Jump);
                // It follows the block it bridges from...
                ASSERT_GT(i, 0u);
                const BlockId from = owner[i - 1];
                ASSERT_NE(from, kNoBlock);
                EXPECT_EQ(img.seqAfter(from), pc);
                // ...and jumps to that block's sequential successor.
                EXPECT_EQ(img.takenTarget(pc),
                          img.blockAddr(prog.block(from).fallthrough));
                continue;
            }
            const BasicBlock &b = prog.block(owner[i]);
            const std::uint32_t k = static_cast<std::uint32_t>(
                (pc - img.blockAddr(b.id)) / kInstBytes);
            EXPECT_EQ(si.cls, prog.insts(b.id)[k]);
            if (k + 1 < b.numInsts) {
                EXPECT_EQ(si.btype, BranchType::None);
                EXPECT_EQ(img.takenTarget(pc), kNoAddr);
                continue;
            }
            EXPECT_EQ(si.btype, b.branchType);
            switch (b.branchType) {
              case BranchType::CondDirect: {
                // Taken to one successor; the other follows in
                // memory, directly or through a stub.
                const bool normal = img.normalPolarity(b.id);
                EXPECT_EQ(img.takenTarget(pc),
                          img.blockAddr(normal ? b.target
                                               : b.fallthrough));
                const BlockId seq = normal ? b.fallthrough : b.target;
                const Addr after = img.seqAfter(b.id);
                EXPECT_TRUE(after == img.blockAddr(seq) ||
                            (img.contains(after) &&
                             img.takenTarget(after) == img.blockAddr(seq)))
                    << "block " << b.id;
                break;
              }
              case BranchType::Jump:
              case BranchType::Call:
                EXPECT_EQ(img.takenTarget(pc), img.blockAddr(b.target));
                break;
              default:
                EXPECT_EQ(img.takenTarget(pc), kNoAddr);
                break;
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

// ---- the front-end checker: the reference for the oracle verify ----

namespace
{

/**
 * A FetchEngine decorator that forwards everything to the real
 * engine and checks the front end's side of the protocol from
 * outside the processor. The first violation throws
 * std::logic_error, which ends the run.
 *
 * Shape: every bundle is well-formed runs inside the image, no larger
 * than the ask, and one run per cycle for the engines that promise it.
 *
 * Per instruction: the checker reads the committed path from its own
 * OracleStream (the generator itself, not the processor's window or
 * its walker) and classifies every fetched instruction as correct or
 * wrong path. An instruction is correct while no divergence is
 * pending and its pc is the committed path's next pc; the first one
 * that is not starts a divergence, charged to the last correct-path
 * instruction, which must be a branch. From then on every
 * instruction is wrong path until the redirect, which must deliver
 * that branch exactly: pc, type, direction, successor and the token
 * of the run that held it. Each trainCommit() must be the next
 * committed-path branch, in order, and already fetched.
 *
 * Silent divergence: an engine that runs astray without fetching a
 * wrong-path instruction goes quiet, and the processor's watchdog
 * declares the divergence after more than kSilenceBound consecutive
 * empty bundles. The checker sees that divergence only when its
 * redirect arrives, and counts the mispredict then; a redirect with
 * no divergence pending is legal only after such a silence. When the
 * run ends with the trailing silence past the bound and no redirect
 * yet, the watchdog has fired and counted its mispredict, so
 * finish() counts that pending divergence too.
 *
 * Tallies: the checker keeps its own count of every front-end
 * SimStats field (a bundle counts as a full-width opportunity when it
 * is non-empty and the ask was the full width) and finish() requires
 * the run's to equal them exactly, so the run must measure every
 * cycle the checker saw (no warm-up).
 */
class FrontEndChecker : public FetchEngine
{
  public:
    /** The processor watchdog's bound on silent fetch cycles. */
    static constexpr std::uint64_t kSilenceBound = 512;

    FrontEndChecker(FetchEngine &inner, const CodeImage &image,
                    const WorkloadModel &model, unsigned width,
                    bool one_run_per_cycle)
        : inner_(inner), image_(image), width_(width),
          oneRun_(one_run_per_cycle),
          fetchPath_(image, model, kRefSeed),
          commitPath_(image, model, kRefSeed),
          next_(fetchPath_.next())
    {}

    void
    fetchCycle(Cycle now, unsigned max_insts, FetchBundle &out) override
    {
        inner_.fetchCycle(now, max_insts, out);
        checkShape(now, max_insts, out);
        const bool full = max_insts == width_ && !out.empty();
        tally_.fetchCyclesAttempted += full;
        if (out.empty()) {
            silence_ += !diverged_;
            return;
        }
        silence_ = 0;
        for (const FetchRun &r : out)
            for (std::uint32_t i = 0; i < r.len; ++i)
                fetchInst(r.start + instsToBytes(i), r.token, full);
    }

    void
    redirect(const ResolvedBranch &rb) override
    {
        if (!diverged_) {
            // Nothing wrong was fetched: the watchdog's divergence.
            if (silence_ <= kSilenceBound)
                fail("redirect with no divergence pending after " +
                     std::to_string(silence_) + " silent cycles");
            diverge();
            ++silentDivergences_;
        }
        if (rb.pc != owed_.pc || rb.type != owed_.type ||
            rb.taken != owed_.taken || rb.target != owed_.target ||
            rb.token != owed_.token)
            fail("redirect to " + hex(rb.pc) + " token " +
                 std::to_string(rb.token) + ", not to the last "
                 "correct-path branch " + hex(owed_.pc) + " token " +
                 std::to_string(owed_.token));
        diverged_ = false;
        silence_ = 0;
        inner_.redirect(rb);
    }

    void
    trainCommit(const CommittedBranch &cb) override
    {
        OracleInst oi;
        do {
            oi = commitPath_.next();
        } while (!oi.isBranch());
        // fetchPath_ has also produced next_, which is not fetched.
        if (commitPath_.instCount() >= fetchPath_.instCount())
            fail("commit of " + hex(cb.pc) + " before it was fetched");
        if (cb.pc != oi.pc || cb.type != oi.btype ||
            cb.taken != oi.taken || cb.target != oi.nextPc)
            fail("trainCommit " + hex(cb.pc) + ", not the next "
                 "committed branch " + hex(oi.pc));
        ++tally_.committedBranches;
        tally_.committedCondBranches += oi.btype == BranchType::CondDirect;
        inner_.trainCommit(cb);
    }

    std::string name() const override { return inner_.name(); }
    StatSet stats() const override { return inner_.stats(); }

    /**
     * Close the run: count a silent divergence still pending, check
     * that no committed branch went untrained, and compare the
     * tallies with @p st, the run's statistics (measured without
     * warm-up).
     */
    void
    finish(const SimStats &st)
    {
        if (!diverged_ && silence_ > kSilenceBound) {
            diverge();
            ++silentDivergences_;
        }
        while (commitPath_.instCount() < st.committedInsts)
            if (commitPath_.next().isBranch())
                fail("committed branch never trained on");

#define SFETCH_CHECK_TALLY(m)                                          \
        if (st.m != tally_.m)                                           \
            fail(#m " is " + std::to_string(st.m) + ", the checker "    \
                 "counted " + std::to_string(tally_.m));
        SFETCH_CHECK_TALLY(fetchedCorrect)
        SFETCH_CHECK_TALLY(fetchedWrong)
        SFETCH_CHECK_TALLY(fetchCyclesAttempted)
        SFETCH_CHECK_TALLY(fetchOppInsts)
        SFETCH_CHECK_TALLY(mispredicts)
        SFETCH_CHECK_TALLY(condMispredicts)
        SFETCH_CHECK_TALLY(committedBranches)
        SFETCH_CHECK_TALLY(committedCondBranches)
        for (std::size_t t = 0; t < SimStats::kNumBranchTypes; ++t)
            SFETCH_CHECK_TALLY(mispredictsByType[t])
#undef SFETCH_CHECK_TALLY
    }

    /** Divergences the watchdog declared, seen at their redirect. */
    std::uint64_t silentDivergences() const { return silentDivergences_; }

  private:
    void
    checkShape(Cycle now, unsigned max_insts, const FetchBundle &out)
    {
        unsigned sum = 0;
        for (const FetchRun &r : out) {
            sum += r.len;
            if (r.len < 1)
                fail(now, "empty run");
            if (!image_.contains(r.start))
                fail(now, "run starts outside the image");
            if (!image_.contains(r.start + instsToBytes(r.len - 1)))
                fail(now, "run ends outside the image");
        }
        if (sum != out.size())
            fail(now, "run lengths do not sum to the bundle size");
        if (out.size() > max_insts)
            fail(now, "bundle larger than the ask");
        if (oneRun_ && out.numRuns() > 1)
            fail(now, "more than one run in a cycle");
    }

    void
    fetchInst(Addr pc, std::uint64_t token, bool full)
    {
        if (!diverged_ && pc == next_.pc) {
            ++tally_.fetchedCorrect;
            tally_.fetchOppInsts += full;
            lastWasBranch_ = next_.isBranch();
            if (lastWasBranch_)
                last_ = {next_.pc, next_.btype, next_.taken, next_.nextPc,
                         token};
            next_ = fetchPath_.next();
            return;
        }
        if (!diverged_)
            diverge();
        ++tally_.fetchedWrong;
    }

    /** Charge a divergence to the last correct-path branch. */
    void
    diverge()
    {
        if (!lastWasBranch_)
            fail("divergence not after a correct-path branch");
        diverged_ = true;
        silence_ = 0;
        owed_ = last_;
        ++tally_.mispredicts;
        tally_.condMispredicts += owed_.type == BranchType::CondDirect;
        ++tally_.mispredictsByType[static_cast<unsigned>(owed_.type)];
    }

    static std::string
    hex(Addr a)
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%#llx",
                      static_cast<unsigned long long>(a));
        return buf;
    }

    [[noreturn]] static void
    fail(const std::string &what)
    {
        throw std::logic_error("front-end check: " + what);
    }

    [[noreturn]] static void
    fail(Cycle now, const char *what)
    {
        fail(std::string(what) + " at cycle " + std::to_string(now));
    }

    FetchEngine &inner_;
    const CodeImage &image_;
    unsigned width_;
    bool oneRun_;

    /** The committed path as fetch meets it; next_ is its head. */
    OracleStream fetchPath_;
    /** The committed path as commit trains on it. */
    OracleStream commitPath_;
    OracleInst next_;

    bool lastWasBranch_ = false;
    ResolvedBranch last_;  //!< last correct-path branch fetched
    bool diverged_ = false;
    ResolvedBranch owed_;  //!< what the pending redirect must deliver
    std::uint64_t silence_ = 0;

    SimStats tally_;
    std::uint64_t silentDivergences_ = 0;
};

/**
 * Stalls the engine it wraps the way a fetch gone astray does: every
 * `period` cycles, after the next bundle that ends in a branch, it
 * delivers nothing until a redirect arrives.
 */
class StallingEngine : public FetchEngine
{
  public:
    StallingEngine(FetchEngine &inner, const CodeImage &image,
                   Cycle period)
        : inner_(inner), image_(image), period_(period)
    {}

    void
    fetchCycle(Cycle now, unsigned max_insts, FetchBundle &out) override
    {
        if (stalled_)
            return;
        inner_.fetchCycle(now, max_insts, out);
        if (now < nextStall_ || out.empty())
            return;
        const FetchRun &last = out.run(out.numRuns() - 1);
        if (image_.inst(last.start + instsToBytes(last.len - 1)).btype !=
            BranchType::None) {
            stalled_ = true;
            nextStall_ = now + period_;
        }
    }

    void
    redirect(const ResolvedBranch &rb) override
    {
        stalled_ = false;
        inner_.redirect(rb);
    }

    void
    trainCommit(const CommittedBranch &cb) override
    {
        inner_.trainCommit(cb);
    }
    std::string name() const override { return inner_.name(); }

  private:
    FetchEngine &inner_;
    const CodeImage &image_;
    Cycle period_;
    Cycle nextStall_ = 0;
    bool stalled_ = false;
};

/** One checked run's set-up. */
struct CheckRun
{
    unsigned width = 8;
    bool optimized = true;
    const OracleArena *arena = nullptr; //!< null: a private window
    bool exactStop = false;
    /** Stall the engine every this many cycles (0: never). */
    Cycle stallPeriod = 0;
};

/**
 * Run @p insts instructions of @p arch on @p work under the checker,
 * with no warm-up, and return the silent divergences it saw; a
 * violation throws.
 */
std::uint64_t
checkedRun(const PlacedWorkload &work, const std::string &arch,
           InstCount insts, const CheckRun &how)
{
    SimConfig cfg(arch);
    cfg.width = how.width;
    const CodeImage &image = work.image(how.optimized);
    MemoryConfig mc;
    mc.l1i.lineBytes = cfg.lineBytes();
    MemoryHierarchy mem(mc);
    auto engine = cfg.makeEngine(image, &mem);
    StallingEngine stalling(*engine, image, how.stallPeriod);
    FetchEngine &front =
        how.stallPeriod ? static_cast<FetchEngine &>(stalling) : *engine;
    FrontEndChecker chk(front, image, work.model(), how.width,
                        arch == "ftb" || arch == "stream" ||
                            arch == "seq");
    ProcessorConfig pc;
    pc.width = how.width;
    pc.exactInstStop = how.exactStop;
    Processor proc(pc, &chk, image, work.model(), &mem, kRefSeed,
                   how.arena);
    const SimStats st = proc.run(insts);
    chk.finish(st);
    if (how.exactStop && st.committedInsts != insts)
        throw std::logic_error("the exact stop overshot");
    return chk.silentDivergences();
}

/** One checker-suite input: a workload and an engine. */
struct CheckCase
{
    std::string bench;
    std::string arch;
    /** Run with ProcessorConfig::exactInstStop. */
    bool exactStop = false;
};

/** Every registered family plus gzip, as the invariance suite runs. */
std::vector<CheckCase>
checkCases(bool exact_stop)
{
    std::vector<std::string> benches = {"gzip"};
    if (!exact_stop) {
        benches = WorkloadRegistry::instance().tokens();
        benches.push_back("gzip");
    }
    std::vector<CheckCase> cases;
    for (const std::string &bench : benches)
        for (const std::string &arch : EngineRegistry::instance().tokens())
            cases.push_back({bench, arch, exact_stop});
    return cases;
}

} // namespace

class FrontEndCheck : public ::testing::TestWithParam<CheckCase>
{};

// Every engine, at widths 4 and 8, on both layouts, reading its
// committed path from a private window and from a shared arena, over
// runs that cross several window refills.
TEST_P(FrontEndCheck, EveryInstructionAgreesWithTheReference)
{
    constexpr InstCount insts = 30'000;
    static_assert(insts > 6 * Processor::kOracleWindowInsts,
                  "the run must cross several window refills");
    const CheckCase &c = GetParam();
    const PlacedWorkload &work = WorkloadCache::instance().get(c.bench);
    for (unsigned width : {4u, 8u}) {
        for (bool opt : {false, true}) {
            const auto arena = work.arena(opt, insts + kFetchAheadMargin);
            for (const OracleArena *source : {(const OracleArena *)nullptr,
                                              arena.get()}) {
                try {
                    checkedRun(work, c.arch, insts,
                               {width, opt, source, c.exactStop});
                } catch (const std::exception &e) {
                    ADD_FAILURE() << "width " << width
                                  << (opt ? " opt " : " base ")
                                  << (source ? "arena: " : "window: ")
                                  << e.what();
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FrontEndCheck, ::testing::ValuesIn(checkCases(false)),
    [](const ::testing::TestParamInfo<CheckCase> &info) {
        return info.param.bench + "_" + info.param.arch;
    });

// The exact instruction stop is a different stopping rule, not a
// different front end: the same checks hold under it.
INSTANTIATE_TEST_SUITE_P(
    ExactStop, FrontEndCheck, ::testing::ValuesIn(checkCases(true)),
    [](const ::testing::TestParamInfo<CheckCase> &info) {
        return info.param.bench + "_" + info.param.arch;
    });

// A stall after a correct-path branch trips the processor's watchdog,
// which charges the divergence to that branch; the checker sees it
// only at the redirect, and every tally must still agree.
TEST(FrontEndWatchdog, SilentDivergenceIsChargedToTheLastBranch)
{
    const PlacedWorkload &work = WorkloadCache::instance().get("gzip");
    for (const std::string &arch : EngineRegistry::instance().tokens()) {
        CheckRun how;
        how.stallPeriod = 2'000;
        try {
            EXPECT_GT(checkedRun(work, arch, 30'000, how), 0u) << arch;
        } catch (const std::exception &e) {
            ADD_FAILURE() << arch << ": " << e.what();
        }
    }
}

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
