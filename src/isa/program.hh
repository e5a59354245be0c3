/**
 * @file
 * A Program is the static control flow graph of a synthetic binary:
 * the "static basic block dictionary" the paper's simulator uses to
 * model wrong-path execution.
 */

#ifndef SFETCH_ISA_PROGRAM_HH
#define SFETCH_ISA_PROGRAM_HH

#include <string>
#include <vector>

#include "isa/basic_block.hh"
#include "util/types.hh"

namespace sfetch
{

/**
 * Immutable container of basic blocks forming a CFG. Blocks are
 * identified by dense BlockIds equal to their index. The original
 * (unoptimized) code layout corresponds to id order; optimized
 * layouts are produced separately by the layout module.
 *
 * Storage is exact-sized: one BasicBlock per block, and the
 * instruction classes and indirect targets of every block in one
 * flat array each, in block order.
 */
class Program
{
  public:
    Program() = default;

    /**
     * @param name Human-readable benchmark name.
     * @param blocks Basic blocks, indexed by id (ids are reassigned
     *        densely).
     * @param entry Entry block id.
     */
    Program(std::string name, std::vector<BlockSpec> blocks,
            BlockId entry);

    const std::string &name() const { return name_; }
    BlockId entry() const { return entry_; }
    std::size_t numBlocks() const { return blocks_.size(); }

    const BasicBlock &
    block(BlockId id) const
    {
        return blocks_.at(id);
    }

    const std::vector<BasicBlock> &blocks() const { return blocks_; }

    /** Instruction classes of block @p id, numInsts of them. */
    const InstClass *
    insts(BlockId id) const
    {
        return classes_.data() + block(id).firstInst;
    }

    /** Possible targets of the indirect jump ending block @p id. */
    BlockIdSpan
    indirectTargets(BlockId id) const
    {
        const BasicBlock &b = block(id);
        return {targets_.data() + b.firstTarget, b.numTargets};
    }

    /** Total static instruction count. */
    InstCount staticInsts() const { return static_insts_; }

    /**
     * Validate CFG invariants (successor ids in range, successor
     * kinds consistent with branch types, inst vectors sized, the
     * terminator being a Branch class instruction, reachability of
     * referenced blocks). Returns an empty string when valid, or a
     * description of the first violation.
     */
    std::string validate() const;

    /** Heap bytes of the program's arrays, by vector capacity. */
    std::size_t bytes() const;

  private:
    std::string name_;
    std::vector<BasicBlock> blocks_;
    std::vector<InstClass> classes_;
    std::vector<BlockId> targets_;
    BlockId entry_ = 0;
    InstCount static_insts_ = 0;
    /** First block whose class vector missed its numInsts. */
    BlockId badInsts_ = kNoBlock;
};

} // namespace sfetch

#endif // SFETCH_ISA_PROGRAM_HH
