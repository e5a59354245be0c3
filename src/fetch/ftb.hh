/**
 * @file
 * FTB fetch architecture (Reinman, Austin, Calder, ISCA 1999): the
 * paper's second baseline. A decoupled front end where the fetch
 * target buffer stores variable-length fetch blocks (ending at
 * ever-taken branches, embedding never-taken ones), predictions are
 * queued in an FTQ, and the i-cache is driven from the FTQ with
 * in-place request updates. Direction prediction is the Jimenez-Lin
 * perceptron, per the paper's "FTB+perceptron" configuration.
 */

#ifndef SFETCH_FETCH_FTB_HH
#define SFETCH_FETCH_FTB_HH

#include <cassert>
#include <vector>

#include "bpred/perceptron.hh"
#include "bpred/predictor_tables.hh"
#include "fetch/fetch_engine.hh"

namespace sfetch
{

/**
 * What the fetch target buffer holds for one fetch block, indexed by
 * its start address: its length, terminator type and taken target.
 */
struct FtbBlock
{
    std::uint32_t lenInsts = 0;
    BranchType type = BranchType::None;
    Addr target = kNoAddr;

    FtbBlock() = default;
    FtbBlock(std::uint32_t len, BranchType t, Addr tgt)
        : lenInsts(len), type(t), target(tgt)
    {}
};

/** Configuration of the FTB front end. */
struct FtbConfig
{
    std::size_t ftbEntries = 2048; //!< paper: 2048-entry, 4-way
    unsigned ftbAssoc = 4;
    PerceptronConfig perceptron;
    std::size_t rasEntries = 8;
    std::size_t ftqEntries = 4;    //!< paper: 4-entry FTQ
    unsigned lineBytes = 128;
    std::uint32_t maxBlockInsts = 64;
};

/** The FTB+perceptron fetch engine. */
class FtbEngine : public FetchEngine
{
  public:
    FtbEngine(const FtbConfig &cfg, const CodeImage &image,
              MemoryHierarchy *mem);

    void fetchCycle(Cycle now, unsigned max_insts,
                    FetchBundle &out) override;
    void redirect(const ResolvedBranch &rb) override;
    void trainCommit(const CommittedBranch &cb) override;
    std::string name() const override { return "FTB+perceptron"; }
    StatSet stats() const override;

  private:
    /** Prediction pipeline: generate one fetch request per cycle. */
    void predictStep();

    FtbConfig cfg_;
    const CodeImage *image_;
    ICacheReader reader_;
    LruTable<FtbBlock> ftb_;
    PerceptronPredictor perceptron_;
    BranchRecovery rec_;
    FetchTargetQueue ftq_;

    Addr predPc_ = kNoAddr;

    /** Bit of the instruction at @p pc in everTaken_. */
    std::size_t
    slot(Addr pc) const
    {
        assert(image_->contains(pc));
        return (pc - image_->baseAddr()) / kInstBytes;
    }

    /**
     * One bit per image instruction, set once the branch there has
     * been taken (a block ender). Sized once, at construction.
     */
    std::vector<bool> everTaken_;
    Addr commitBlockStart_ = kNoAddr;

    // stats
    std::uint64_t blocksPredicted_ = 0;
    std::uint64_t blockInstsPredicted_ = 0;
    std::uint64_t seqRequests_ = 0;
    std::uint64_t instsFetched_ = 0;
};

} // namespace sfetch

#endif // SFETCH_FETCH_FTB_HH
