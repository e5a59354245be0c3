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
#include "pipeline/processor.hh"
#include "sim/experiment.hh"
#include "sim/workload_cache.hh"
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

// ---- bundle shape: every engine delivers well-formed runs ----

namespace
{

/**
 * A FetchEngine decorator: forwards everything to the real engine
 * and checks the shape of every bundle it delivers to the processor.
 */
class BundleShapeChecker : public FetchEngine
{
  public:
    BundleShapeChecker(FetchEngine &inner, const CodeImage &image,
                       bool one_run_per_cycle)
        : inner_(inner), image_(image), oneRun_(one_run_per_cycle)
    {}

    void
    fetchCycle(Cycle now, unsigned max_insts, FetchBundle &out) override
    {
        inner_.fetchCycle(now, max_insts, out);
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
        insts_ += out.size();
    }

    void redirect(const ResolvedBranch &rb) override { inner_.redirect(rb); }
    void
    trainCommit(const CommittedBranch &cb) override
    {
        inner_.trainCommit(cb);
    }
    std::string name() const override { return inner_.name(); }
    StatSet stats() const override { return inner_.stats(); }

    std::uint64_t violations() const { return violations_; }
    const std::string &firstViolation() const { return first_; }
    std::uint64_t insts() const { return insts_; }

  private:
    void
    fail(Cycle now, const char *what)
    {
        if (violations_++ == 0)
            first_ = std::string(what) + " at cycle " +
                std::to_string(now);
    }

    FetchEngine &inner_;
    const CodeImage &image_;
    bool oneRun_;
    std::uint64_t violations_ = 0;
    std::string first_;
    std::uint64_t insts_ = 0;
};

} // namespace

class BundleShape
    : public ::testing::TestWithParam<std::tuple<const char *, const char *>>
{};

TEST_P(BundleShape, EveryBundleIsWellFormedRuns)
{
    auto [family, arch] = GetParam();
    const std::string a = arch;
    const PlacedWorkload &work = WorkloadCache::instance().get(family);
    for (unsigned width : {4u, 8u}) {
        for (bool opt : {false, true}) {
            SimConfig cfg(arch);
            cfg.width = width;
            const CodeImage &image = work.image(opt);
            MemoryConfig mc;
            mc.l1i.lineBytes = cfg.lineBytes();
            MemoryHierarchy mem(mc);
            auto engine = cfg.makeEngine(image, &mem);
            BundleShapeChecker chk(
                *engine, image, a == "ftb" || a == "stream" || a == "seq");
            ProcessorConfig pc;
            pc.width = width;
            Processor proc(pc, &chk, image, work.model(), &mem,
                           kRefSeed);
            proc.run(50'000, 10'000);
            EXPECT_EQ(chk.violations(), 0u)
                << "width " << width << (opt ? " opt: " : " base: ")
                << chk.firstViolation();
            EXPECT_GE(chk.insts(), 60'000u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, BundleShape,
    ::testing::Combine(::testing::Values("synth", "loops", "server",
                                         "thrash", "phased"),
                       ::testing::Values("ev8", "ftb", "stream",
                                         "trace", "seq")),
    [](const auto &info) {
        return std::string(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param);
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
