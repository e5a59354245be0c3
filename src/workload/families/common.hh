/**
 * @file
 * Shared scaffolding for the hand-built workload families under
 * workload/families/. A FamilyBuilder accumulates basic blocks and
 * branch-behaviour models, fills in per-block instruction mixes the
 * same way the synth generator does, and finishes into a validated
 * SyntheticWorkload whose program is named after the canonical bench
 * spec. Families stay small: structure code in the family file,
 * bookkeeping here.
 */

#ifndef SFETCH_WORKLOAD_FAMILIES_COMMON_HH
#define SFETCH_WORKLOAD_FAMILIES_COMMON_HH

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hh"
#include "workload/synth.hh"
#include "workload/workload_registry.hh"

namespace sfetch
{
namespace family
{

/**
 * Upper bound of every family's `ws_kb` (1 GiB). It keeps the
 * working set's byte count from overflowing (a shift by 10 of a
 * larger value wraps, to 0 at 2^54), and it keeps every data address
 * within the u32 offset above kDataRegionBase that DataStream
 * stores.
 */
constexpr std::int64_t kMaxWsKb = std::int64_t(1) << 20;

class FamilyBuilder
{
  public:
    explicit FamilyBuilder(std::uint64_t seed) : seed_(seed) {}

    /** Append a block of @p num_insts instructions (>= 1). */
    BlockId
    block(std::uint32_t num_insts,
          BranchType type = BranchType::None)
    {
        BlockSpec b;
        b.id = static_cast<BlockId>(blocks_.size());
        b.numInsts = num_insts < 1 ? 1 : num_insts;
        b.branchType = type;
        blocks_.push_back(std::move(b));
        return blocks_.back().id;
    }

    BlockSpec &at(BlockId id) { return blocks_.at(id); }

    /**
     * A fallthrough chain of @p n blocks; returns {entry, last}.
     * The last block's successor is left for the caller to wire.
     */
    std::pair<BlockId, BlockId>
    chain(unsigned n, std::uint32_t insts_per_block)
    {
        BlockId entry = kNoBlock;
        BlockId prev = kNoBlock;
        for (unsigned i = 0; i < n; ++i) {
            BlockId b = block(insts_per_block);
            if (entry == kNoBlock)
                entry = b;
            if (prev != kNoBlock)
                at(prev).fallthrough = b;
            prev = b;
        }
        return {entry, prev};
    }

    /** Bottom-tested loop latch around @p body_entry..@p body_last. */
    BlockId
    loop(BlockId body_entry, BlockId body_last,
         std::uint32_t latch_insts, double mean_trips,
         double trip_jitter = 0.0)
    {
        BlockId latch = block(latch_insts, BranchType::CondDirect);
        at(latch).target = body_entry; // back edge (taken)
        at(body_last).fallthrough = latch;
        CondModel m;
        m.kind = CondModel::Kind::Loop;
        m.meanTrips = mean_trips < 2.0 ? 2.0 : mean_trips;
        m.tripJitter = trip_jitter;
        model_.setCond(latch, m);
        return latch;
    }

    /**
     * The program's main: a @p call_insts call block per entry of
     * @p callees in order, looped like loop(), then a return.
     * Returns the first call block, the program's entry.
     */
    BlockId
    mainLoop(const std::vector<BlockId> &callees,
             std::uint32_t call_insts, double outer_trips,
             double trip_jitter = 0.0)
    {
        BlockId first = kNoBlock;
        BlockId prev = kNoBlock;
        for (BlockId callee : callees) {
            BlockId c = block(call_insts, BranchType::Call);
            at(c).target = callee;
            if (first == kNoBlock)
                first = c;
            else
                at(prev).fallthrough = c;
            prev = c;
        }
        BlockId latch = loop(first, prev, 3, outer_trips, trip_jitter);
        BlockId ret = block(2, BranchType::Return);
        at(latch).fallthrough = ret;
        return first;
    }

    /** Attach an arbitrary conditional model to @p b. */
    void cond(BlockId b, const CondModel &m) { model_.setCond(b, m); }

    /**
     * If-then hammock `cond -> {join | arm} -> join`: appends cond,
     * arm and join blocks in that order, wires @p chain_last's
     * fallthrough to cond, and advances @p chain_last to the join.
     * The CFG target (primary) successor is the arm-skipping edge.
     * Returns the cond block for model attachment.
     */
    BlockId
    hammock(BlockId &chain_last, std::uint32_t insts)
    {
        BlockId c = block(insts, BranchType::CondDirect);
        BlockId arm = block(insts);
        BlockId join = block(2);
        at(chain_last).fallthrough = c;
        at(c).target = join;
        at(c).fallthrough = arm;
        at(arm).fallthrough = join;
        chain_last = join;
        return c;
    }

    void
    biased(BlockId b, double p_primary)
    {
        CondModel m;
        m.kind = CondModel::Kind::Biased;
        m.pPrimary = p_primary;
        model_.setCond(b, m);
    }

    void
    correlated(BlockId b, double p_primary, unsigned history_bits,
               double noise, bool on_cases = false)
    {
        CondModel m;
        m.kind = CondModel::Kind::Correlated;
        m.pPrimary = p_primary;
        m.historyBits = history_bits;
        m.noise = noise;
        m.onCases = on_cases;
        m.seed = mix64(seed_ ^ (0xfa417ULL + b * 7919));
        model_.setCond(b, m);
    }

    void
    phased(BlockId b, double p_primary, double run_len_mean)
    {
        CondModel m;
        m.kind = CondModel::Kind::Phased;
        m.pPrimary = p_primary;
        m.runLenMean = run_len_mean < 8.0 ? 8.0 : run_len_mean;
        model_.setCond(b, m);
    }

    void
    indirect(BlockId b, std::vector<BlockId> targets,
             double correlation)
    {
        IndirectModel im;
        im.correlation = correlation;
        im.seed = mix64(seed_ ^ (0x51235ULL + b));
        im.weights.resize(targets.size());
        for (std::size_t i = 0; i < targets.size(); ++i)
            im.weights[i] = 1.0 / double((i + 1) * (i + 1));
        at(b).indirectTargets = std::move(targets);
        model_.setIndirect(b, std::move(im));
    }

    void setData(DataModel d) { model_.setData(d); }

    /**
     * Assign instruction mixes, validate, and produce the workload.
     * Throws std::logic_error when the assembled CFG is invalid:
     * family parameters come from users, and a malformed program
     * must fail loudly, not corrupt a simulation.
     */
    SyntheticWorkload
    finish(std::string name, BlockId entry)
    {
        for (BlockSpec &b : blocks_)
            assignInsts(b);
        Program prog(std::move(name), std::move(blocks_), entry);
        std::string err = prog.validate();
        if (!err.empty())
            throw std::logic_error("workload family built an "
                                   "invalid program: " + err);
        model_.shrinkToFit();
        return SyntheticWorkload{std::move(prog), std::move(model_)};
    }

    // Instruction-mix fractions (synth generator defaults).
    double loadFrac = 0.22;
    double storeFrac = 0.12;
    double mulFrac = 0.03;
    double fpFrac = 0.02;

  private:
    void
    assignInsts(BlockSpec &b)
    {
        Pcg32 rng(mix64(seed_ ^ (b.id * 0x9e3779b9ULL)), 7);
        b.insts.resize(b.numInsts);
        for (std::uint32_t i = 0; i < b.numInsts; ++i) {
            double u = rng.nextDouble();
            if (u < loadFrac)
                b.insts[i] = InstClass::Load;
            else if (u < loadFrac + storeFrac)
                b.insts[i] = InstClass::Store;
            else if (u < loadFrac + storeFrac + mulFrac)
                b.insts[i] = InstClass::IntMul;
            else if (u < loadFrac + storeFrac + mulFrac + fpFrac)
                b.insts[i] = InstClass::FpAlu;
            else
                b.insts[i] = InstClass::IntAlu;
        }
        if (b.hasBranch())
            b.insts.back() = InstClass::Branch;
        else
            for (auto &c : b.insts)
                if (c == InstClass::Branch)
                    c = InstClass::IntAlu;
    }

    std::uint64_t seed_;
    std::vector<BlockSpec> blocks_;
    WorkloadModel model_;
};

} // namespace family
} // namespace sfetch

#endif // SFETCH_WORKLOAD_FAMILIES_COMMON_HH
