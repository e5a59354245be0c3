/**
 * @file
 * Synthetic fixed-width ISA used by the trace-driven simulator.
 *
 * The paper evaluates Alpha binaries; for the reproduction we only
 * need the properties of instructions that the fetch engine and the
 * back-end timing model observe: the instruction class (for execution
 * latency and d-cache traffic) and, for the last instruction of a
 * basic block, the control transfer type.
 */

#ifndef SFETCH_ISA_INSTRUCTION_HH
#define SFETCH_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "util/types.hh"

namespace sfetch
{

/** Broad instruction classes with distinct timing behaviour. */
enum class InstClass : std::uint8_t
{
    IntAlu,   //!< single-cycle integer operation
    IntMul,   //!< multi-cycle integer operation
    Load,     //!< memory read (accesses the d-cache)
    Store,    //!< memory write (accesses the d-cache)
    FpAlu,    //!< floating point operation
    Branch,   //!< any control transfer (always a block terminator)
    Nop       //!< no-op / padding
};

/** Control transfer kinds, determining prediction requirements. */
enum class BranchType : std::uint8_t
{
    None,         //!< block has no terminating branch (pure fallthrough)
    CondDirect,   //!< conditional direct branch (two successors)
    Jump,         //!< unconditional direct jump (always taken)
    Call,         //!< direct call (always taken, pushes return address)
    Return,       //!< return (always taken, target from call stack)
    IndirectJump  //!< unconditional indirect jump (switch/vtable)
};

/** True for types that transfer control on every execution. */
constexpr bool
alwaysTaken(BranchType t)
{
    return t == BranchType::Jump || t == BranchType::Call ||
           t == BranchType::Return || t == BranchType::IndirectJump;
}

/** True for any type that is an actual branch instruction. */
constexpr bool
isControl(BranchType t)
{
    return t != BranchType::None;
}

/** A branch on the committed path, as commit and a path walk see it. */
struct CommittedBranch
{
    Addr pc = kNoAddr;
    BranchType type = BranchType::None;
    bool taken = false;
    Addr target = kNoAddr;      //!< actual successor PC
};

/** Printable name of an instruction class. */
std::string toString(InstClass c);

/** Printable name of a branch type. */
std::string toString(BranchType t);

} // namespace sfetch

#endif // SFETCH_ISA_INSTRUCTION_HH
