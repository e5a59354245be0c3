#include "workload/synth.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "util/rng.hh"

namespace sfetch
{

namespace
{

/** Which successor field of a block is waiting to be patched. */
enum class Field : std::uint8_t { Target, Fallthrough, Indirect };

/** A successor slot to patch with a later block's id. */
struct Slot
{
    BlockId block;
    Field field;
    std::size_t indirectIdx = 0; //!< for Field::Indirect
};

/**
 * Stateful builder that emits blocks in baseline layout order and
 * wires regions by continuation patching.
 */
class Generator
{
  public:
    explicit Generator(const WorkloadParams &p)
        : p_(p), rng_(mix64(p.seed), 0x9e3779b97f4a7c15ULL)
    {}

    SyntheticWorkload
    run()
    {
        // Leaves first (no callees), then mids, then tops, then main:
        // a compiler-like bottom-up emission order with poor call
        // locality, which the layout optimizer later fixes.
        for (unsigned i = 0; i < p_.numLeafFuncs; ++i)
            leaf_funcs_.push_back(genFunction(/*callees=*/{}));
        for (unsigned i = 0; i < p_.numMidFuncs; ++i)
            mid_funcs_.push_back(genFunction(leaf_funcs_));

        std::vector<BlockId> top_callees = mid_funcs_;
        top_callees.insert(top_callees.end(), leaf_funcs_.begin(),
                           leaf_funcs_.end());
        for (unsigned i = 0; i < p_.numTopFuncs; ++i)
            top_funcs_.push_back(genFunction(top_callees));

        BlockId entry = genMain();

        // Assign instruction classes.
        for (auto &b : blocks_)
            assignInsts(b);

        Program prog(p_.name, std::move(blocks_), entry);
        assert(prog.validate().empty());
        model_.shrinkToFit();
        return SyntheticWorkload{std::move(prog), std::move(model_)};
    }

  private:
    // ---- block emission ----

    BlockId
    newBlock(std::uint32_t num_insts)
    {
        BlockSpec b;
        b.id = static_cast<BlockId>(blocks_.size());
        b.numInsts = std::max<std::uint32_t>(1, num_insts);
        blocks_.push_back(std::move(b));
        return blocks_.back().id;
    }

    std::uint32_t
    drawBlockSize()
    {
        return std::min<std::uint32_t>(
            rng_.nextGeometric(p_.blockSizeMean, p_.blockSizeMax),
            p_.blockSizeMax);
    }

    void
    patch(const std::vector<Slot> &slots, BlockId to)
    {
        for (const Slot &s : slots) {
            BlockSpec &b = blocks_.at(s.block);
            switch (s.field) {
              case Field::Target:
                b.target = to;
                break;
              case Field::Fallthrough:
                b.fallthrough = to;
                break;
              case Field::Indirect:
                b.indirectTargets.at(s.indirectIdx) = to;
                break;
            }
        }
    }

    // ---- region generation ----

    struct Region
    {
        BlockId entry;
        std::vector<Slot> exits;
    };

    /** A fallthrough-chained run of 1..max blocks; last block open. */
    Region
    genChain(unsigned max_blocks)
    {
        unsigned n = 1 + rng_.nextBounded(max_blocks);
        BlockId entry = kNoBlock;
        BlockId prev = kNoBlock;
        for (unsigned i = 0; i < n; ++i) {
            BlockId b = newBlock(drawBlockSize());
            if (entry == kNoBlock)
                entry = b;
            if (prev != kNoBlock) {
                blocks_[prev].branchType = BranchType::None;
                blocks_[prev].fallthrough = b;
            }
            prev = b;
        }
        return Region{entry, {Slot{prev, Field::Fallthrough}}};
    }

    Region
    genStraight()
    {
        return genChain(2);
    }

    /** Draw a hammock hot-path probability. */
    double
    drawPHot()
    {
        if (rng_.nextBool(p_.strongBiasFrac))
            return 0.97 + rng_.nextDouble() * 0.03;
        return p_.pHotModerateLo +
            rng_.nextDouble() * (p_.pHotModerateHi - p_.pHotModerateLo);
    }

    /** Attach a Biased or Correlated model to conditional block @p c.
     *  @p p_primary is the probability of the CFG target successor. */
    void
    attachCondModel(BlockId c, double p_primary)
    {
        CondModel m;
        double u = rng_.nextDouble();
        if (u < p_.corrFraction) {
            m.kind = CondModel::Kind::Correlated;
            m.noise = p_.noise;
            m.historyBits = p_.historyBits;
            // Branches within a function share correlation
            // structure 60% of the time (they test related
            // conditions), which lets predictors generalize.
            bool clustered = rng_.nextBool(0.6);
            m.seed = clustered
                ? mix64(p_.seed ^ (0x5eedULL + curFunc_ * 7919))
                : mix64(p_.seed ^ (0xabcdULL + c));
            m.onCases = rng_.nextBool(p_.corrOnCasesFrac);
        } else if (u < p_.corrFraction + p_.phasedFraction) {
            m.kind = CondModel::Kind::Phased;
            // Log-uniform spread of phase lengths per branch.
            double f = std::exp((rng_.nextDouble() * 2.0 - 1.0) * 1.0);
            m.runLenMean = std::max(8.0, p_.phasedRunLen * f);
        } else {
            m.kind = CondModel::Kind::Biased;
        }
        m.pPrimary = p_primary;
        model_.setCond(c, m);
    }

    Region
    genHammock()
    {
        BlockId c = newBlock(drawBlockSize());
        blocks_[c].branchType = BranchType::CondDirect;

        double p_hot = drawPHot();
        std::vector<Slot> exits;

        if (rng_.nextBool(p_.ifThenFrac)) {
            // if-then: "c: branch-if-skip -> join; arm; join".
            Region arm = genChain(p_.armBlocksMax);
            blocks_[c].fallthrough = arm.entry;
            exits.push_back(Slot{c, Field::Target});
            for (const Slot &s : arm.exits)
                exits.push_back(s);
            // Is the arm the hot path? 50/50, like source code where
            // the then-clause may be the common or the rare case.
            bool arm_hot = rng_.nextBool(0.5);
            double p_arm = arm_hot ? p_hot : 1.0 - p_hot;
            // primary == target == skip-over-arm.
            attachCondModel(c, 1.0 - p_arm);
        } else {
            // if-then-else: "c: branch -> armB; armA; jump join;
            // armB; join".
            Region arm_a = genChain(p_.armBlocksMax);
            // armA must jump over armB to reach the join.
            BlockId a_last = arm_a.exits.front().block;
            blocks_[a_last].branchType = BranchType::Jump;
            Region arm_b = genChain(p_.armBlocksMax);
            blocks_[c].fallthrough = arm_a.entry;
            blocks_[c].target = arm_b.entry;
            exits.push_back(Slot{a_last, Field::Target});
            for (const Slot &s : arm_b.exits)
                exits.push_back(s);
            // One arm is hot; which one is adjacent (armA) is random,
            // modelling source order vs. actual bias.
            bool b_hot = rng_.nextBool(0.5);
            double p_target = b_hot ? p_hot : 1.0 - p_hot;
            attachCondModel(c, p_target);
        }
        return Region{c, std::move(exits)};
    }

    Region
    genLoop(unsigned depth, const std::vector<BlockId> &callees)
    {
        // Bottom-tested loop: body regions, then a conditional latch
        // whose taken edge is the back edge.
        unsigned n_regions = std::max<unsigned>(
            1, rng_.nextGeometric(p_.loopBodyRegionsMean, 6));
        Region body = genRegionSeq(n_regions, depth + 1, callees);

        BlockId latch = newBlock(drawBlockSize());
        blocks_[latch].branchType = BranchType::CondDirect;
        blocks_[latch].target = body.entry; // back edge (taken)
        patch(body.exits, latch);

        CondModel m;
        m.kind = CondModel::Kind::Loop;
        // Per-loop trip count, log-uniform around the configured mean.
        double f = std::exp((rng_.nextDouble() * 2.0 - 1.0) * 0.7);
        m.meanTrips = std::max(2.0, p_.meanTrips * f);
        m.tripJitter = rng_.nextBool(p_.tripDeterministicFrac)
            ? 0.0 : p_.tripJitter;
        model_.setCond(latch, m);

        return Region{body.entry, {Slot{latch, Field::Fallthrough}}};
    }

    Region
    genCall(const std::vector<BlockId> &callees)
    {
        BlockId c = newBlock(drawBlockSize());
        blocks_[c].branchType = BranchType::Call;
        // Zipf-skewed callee selection: a few callees dominate.
        std::size_t n = callees.size();
        double u = rng_.nextDouble();
        auto idx = static_cast<std::size_t>(
            double(n) * std::pow(u, 2.0));
        if (idx >= n)
            idx = n - 1;
        blocks_[c].target = callees[idx];
        return Region{c, {Slot{c, Field::Fallthrough}}};
    }

    Region
    genSwitch()
    {
        BlockId s = newBlock(drawBlockSize());
        blocks_[s].branchType = BranchType::IndirectJump;

        unsigned k = 2 + rng_.nextBounded(
            std::max(1u, p_.switchTargetsMean * 2 - 2));
        blocks_[s].indirectTargets.assign(k, kNoBlock);

        IndirectModel im;
        im.correlation = p_.indirectCorrelation;
        im.seed = mix64(p_.seed ^ (0x51235ULL + s));
        im.weights.resize(k);
        for (unsigned i = 0; i < k; ++i)
            im.weights[i] = 1.0 / std::pow(double(i + 1), 2.0);

        std::vector<Slot> exits;
        for (unsigned i = 0; i < k; ++i) {
            BlockId case_entry = newBlock(drawBlockSize());
            blocks_[case_entry].branchType = BranchType::Jump;
            blocks_[s].indirectTargets[i] = case_entry;
            exits.push_back(Slot{case_entry, Field::Target});
        }
        model_.setIndirect(s, std::move(im));
        return Region{s, std::move(exits)};
    }

    Region
    genRegion(unsigned depth, const std::vector<BlockId> &callees)
    {
        double u = rng_.nextDouble();
        double acc = 0.0;

        acc += (depth < p_.maxLoopDepth) ? p_.loopProb : 0.0;
        if (u < acc)
            return genLoop(depth, callees);

        acc += p_.hammockProb;
        if (u < acc)
            return genHammock();

        acc += callees.empty() ? 0.0 : p_.callProb;
        if (u < acc)
            return genCall(callees);

        acc += p_.switchProb;
        if (u < acc)
            return genSwitch();

        return genStraight();
    }

    Region
    genRegionSeq(unsigned count, unsigned depth,
                 const std::vector<BlockId> &callees)
    {
        assert(count >= 1);
        Region first = genRegion(depth, callees);
        std::vector<Slot> pending = first.exits;
        for (unsigned i = 1; i < count; ++i) {
            Region r = genRegion(depth, callees);
            patch(pending, r.entry);
            pending = r.exits;
        }
        return Region{first.entry, std::move(pending)};
    }

    /** Generate one function; returns its entry block id. */
    BlockId
    genFunction(const std::vector<BlockId> &callees)
    {
        ++curFunc_;
        unsigned n_regions = std::max<unsigned>(
            2, rng_.nextGeometric(p_.regionsPerFuncMean, 16));
        Region body = genRegionSeq(n_regions, 0, callees);

        BlockId ret = newBlock(std::max<std::uint32_t>(
            2, drawBlockSize() / 2));
        blocks_[ret].branchType = BranchType::Return;
        patch(body.exits, ret);
        return body.entry;
    }

    /** The main driver: an outer loop calling every top function. */
    BlockId
    genMain()
    {
        assert(!top_funcs_.empty());
        BlockId first_call = kNoBlock;
        std::vector<Slot> pending;
        for (BlockId callee : top_funcs_) {
            BlockId c = newBlock(drawBlockSize());
            blocks_[c].branchType = BranchType::Call;
            blocks_[c].target = callee;
            if (first_call == kNoBlock)
                first_call = c;
            else
                patch(pending, c);
            pending = {Slot{c, Field::Fallthrough}};
        }

        BlockId latch = newBlock(3);
        blocks_[latch].branchType = BranchType::CondDirect;
        blocks_[latch].target = first_call;
        patch(pending, latch);

        CondModel m;
        m.kind = CondModel::Kind::Loop;
        m.meanTrips = p_.outerTrips;
        m.tripJitter = 0.1;
        model_.setCond(latch, m);

        BlockId ret = newBlock(2);
        blocks_[ret].branchType = BranchType::Return;
        blocks_[latch].fallthrough = ret;

        model_.setData(p_.data);
        return first_call;
    }

    void
    assignInsts(BlockSpec &b)
    {
        Pcg32 rng(mix64(p_.seed ^ (b.id * 0x9e3779b9ULL)), 7);
        b.insts.resize(b.numInsts);
        for (std::uint32_t i = 0; i < b.numInsts; ++i) {
            double u = rng.nextDouble();
            if (u < p_.loadFrac)
                b.insts[i] = InstClass::Load;
            else if (u < p_.loadFrac + p_.storeFrac)
                b.insts[i] = InstClass::Store;
            else if (u < p_.loadFrac + p_.storeFrac + p_.mulFrac)
                b.insts[i] = InstClass::IntMul;
            else if (u < p_.loadFrac + p_.storeFrac + p_.mulFrac +
                     p_.fpFrac)
                b.insts[i] = InstClass::FpAlu;
            else
                b.insts[i] = InstClass::IntAlu;
        }
        if (b.hasBranch())
            b.insts.back() = InstClass::Branch;
        else for (auto &c : b.insts)
            if (c == InstClass::Branch)
                c = InstClass::IntAlu;
    }

    const WorkloadParams &p_;
    Pcg32 rng_;
    std::vector<BlockSpec> blocks_;
    WorkloadModel model_;
    unsigned curFunc_ = 0;
    std::vector<BlockId> leaf_funcs_;
    std::vector<BlockId> mid_funcs_;
    std::vector<BlockId> top_funcs_;
};

} // namespace

SyntheticWorkload
generateWorkload(const WorkloadParams &params)
{
    Generator gen(params);
    return gen.run();
}

} // namespace sfetch
