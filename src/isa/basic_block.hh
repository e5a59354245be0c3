/**
 * @file
 * Static basic block: the unit of the program dictionary that the
 * trace-driven simulator walks for both correct-path and wrong-path
 * fetch.
 */

#ifndef SFETCH_ISA_BASIC_BLOCK_HH
#define SFETCH_ISA_BASIC_BLOCK_HH

#include <cstdint>
#include <vector>

#include "isa/instruction.hh"
#include "util/types.hh"

namespace sfetch
{

/**
 * A static basic block. Successor semantics by terminator type:
 *
 *  - None:         control always continues at @c fallthrough.
 *  - CondDirect:   control goes to @c target when the branch is
 *                  semantically "on-path-A" and @c fallthrough
 *                  otherwise. Which successor is the memory
 *                  fall-through is a *layout* decision (the optimizer
 *                  may re-polarize the branch); the CFG stores only
 *                  the two successors.
 *  - Jump:         control always goes to @c target.
 *  - Call:         control goes to @c target (the callee entry);
 *                  @c fallthrough records the return continuation
 *                  executed after the callee returns.
 *  - Return:       successor is dynamic (the call stack).
 *  - IndirectJump: successor is one of the block's indirect targets
 *                  (Program::indirectTargets()).
 */
struct BasicBlock
{
    BlockId id = kNoBlock;

    /** Number of instructions including the terminating branch. */
    std::uint32_t numInsts = 1;

    BranchType branchType = BranchType::None;

    /** Taken successor / jump target / callee entry. */
    BlockId target = kNoBlock;

    /** Not-taken successor / return continuation / sequential next. */
    BlockId fallthrough = kNoBlock;

    /**
     * Where the block's instruction classes and indirect targets
     * start in the Program's flat arrays (Program::insts(),
     * Program::indirectTargets()); assigned by the Program.
     */
    std::uint32_t firstInst = 0;
    std::uint32_t firstTarget = 0;
    std::uint32_t numTargets = 0;

    /** Byte size of the block. */
    Addr sizeBytes() const { return instsToBytes(numInsts); }

    /** True if the terminating instruction is a control transfer. */
    bool hasBranch() const { return isControl(branchType); }

    /**
     * True if this block must be followed in memory by a specific
     * successor (fallthrough blocks and conditional branches need a
     * sequential successor; jumps/returns/indirects do not).
     */
    bool
    needsSequentialSuccessor() const
    {
        return branchType == BranchType::None ||
               branchType == BranchType::CondDirect ||
               branchType == BranchType::Call;
    }
};

/**
 * A block under construction: the CFG fields plus the block's own
 * instruction classes (insts.size() == numInsts) and indirect-jump
 * targets, which the Program gathers into one flat array each.
 */
struct BlockSpec : BasicBlock
{
    std::vector<InstClass> insts;
    std::vector<BlockId> indirectTargets;
};

/** A block's indirect-jump targets inside its Program. */
struct BlockIdSpan
{
    const BlockId *first = nullptr;
    std::uint32_t count = 0;

    const BlockId *begin() const { return first; }
    const BlockId *end() const { return first + count; }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    BlockId operator[](std::size_t i) const { return first[i]; }
};

} // namespace sfetch

#endif // SFETCH_ISA_BASIC_BLOCK_HH
