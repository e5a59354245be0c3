/**
 * @file
 * Fluent construction of Programs for tests, examples and the
 * synthetic workload generator.
 */

#ifndef SFETCH_ISA_CFG_BUILDER_HH
#define SFETCH_ISA_CFG_BUILDER_HH

#include <string>
#include <vector>

#include "isa/program.hh"

namespace sfetch
{

/**
 * Builds a Program block by block. Typical usage:
 *
 * @code
 * CfgBuilder b("example");
 * BlockId a = b.addBlock(4);
 * BlockId c = b.addBlock(3);
 * b.cond(a, c, a2);   // conditional: taken -> c, fallthrough -> a2
 * b.jump(c, a);       // unconditional back edge
 * Program p = b.build(a);
 * @endcode
 *
 * Instruction classes default to a generic integer mix with a Branch
 * terminator where needed; setInsts() overrides them.
 */
class CfgBuilder
{
  public:
    explicit CfgBuilder(std::string name) : name_(std::move(name)) {}

    /** Append a block of @p num_insts instructions; returns its id. */
    BlockId addBlock(std::uint32_t num_insts);

    /** Terminate @p id with a conditional branch. */
    void cond(BlockId id, BlockId taken, BlockId fallthrough);

    /** Terminate @p id with an unconditional direct jump. */
    void jump(BlockId id, BlockId target);

    /** Terminate @p id with a call; @p cont runs after the return. */
    void call(BlockId id, BlockId callee, BlockId cont);

    /** Terminate @p id with a return. */
    void ret(BlockId id);

    /** Terminate @p id with an indirect jump over @p targets. */
    void indirect(BlockId id, std::vector<BlockId> targets);

    /** Make @p id a pure fallthrough into @p next (no branch). */
    void fallthrough(BlockId id, BlockId next);

    /** Override the instruction classes of a block. */
    void setInsts(BlockId id, std::vector<InstClass> insts);

    /** Number of blocks added so far. */
    std::size_t size() const { return blocks_.size(); }

    /** Direct access while building (e.g.\ to tweak sizes). */
    BlockSpec &at(BlockId id) { return blocks_.at(id); }

    /**
     * Finalize into a Program with the given entry block. Aborts via
     * assert if validation fails in debug builds; callers should also
     * check Program::validate() in tests.
     */
    Program build(BlockId entry) const;

  private:
    /** Fill default inst classes honouring the terminator type. */
    static void defaultInsts(BlockSpec &b);

    std::string name_;
    std::vector<BlockSpec> blocks_;
};

} // namespace sfetch

#endif // SFETCH_ISA_CFG_BUILDER_HH
