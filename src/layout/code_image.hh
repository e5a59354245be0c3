/**
 * @file
 * CodeImage: a Program placed at concrete addresses under a given
 * block order. This is the "binary" the fetch engines walk — both on
 * the correct path and on wrong paths — one StaticInst per
 * instruction address.
 *
 * Placement enforces the sequential-successor requirements of the
 * ISA: a fallthrough block must be followed by its successor, a call
 * by its return continuation, and a conditional branch by one of its
 * two successors (the layout decides which, re-polarizing the branch
 * exactly like a compiler inverting a condition). Where the order
 * breaks a requirement, a one-instruction unconditional *stub jump*
 * is inserted, as a linker would.
 */

#ifndef SFETCH_LAYOUT_CODE_IMAGE_HH
#define SFETCH_LAYOUT_CODE_IMAGE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "util/types.hh"

namespace sfetch
{

/** Meta-byte bits holding the instruction class. */
constexpr std::uint8_t kMetaClassBits = 0x07;
/** Meta-byte bits holding the branch type (nonzero for branches). */
constexpr std::uint8_t kMetaBranchBits = 0x38;
/** Shift of the branch type within a meta byte. */
constexpr unsigned kMetaBranchShift = 3;
/** Meta-byte bit set on taken branches of a committed path. */
constexpr std::uint8_t kMetaTakenBit = 0x40;
/** Zero bytes CodeImage::meta() carries past the last instruction. */
constexpr std::size_t kMetaPadBytes = 32;

/** The branch-type field of a meta byte for type @p bt. */
constexpr std::uint8_t
metaBranchField(BranchType bt)
{
    return static_cast<std::uint8_t>(static_cast<unsigned>(bt)
                                     << kMetaBranchShift);
}

/** The meta byte of an instruction of class @p cls and type @p bt. */
constexpr std::uint8_t
packMeta(InstClass cls, BranchType bt)
{
    return static_cast<std::uint8_t>(
        (static_cast<unsigned>(cls) & kMetaClassBits) |
        metaBranchField(bt));
}

/** The branch type a meta byte holds. */
constexpr BranchType
metaBranchType(std::uint8_t mb)
{
    return static_cast<BranchType>((mb & kMetaBranchBits) >>
                                   kMetaBranchShift);
}

/** Compact per-instruction record of the placed binary. */
struct StaticInst
{
    /** Owning block, or kNoBlock for a stub jump. */
    BlockId block = kNoBlock;

    /** Instruction index within the block (0 for stubs). */
    std::uint16_t offset = 0;

    /** Instruction class. */
    InstClass cls = InstClass::IntAlu;

    /** Control transfer type (None for non-branches). */
    BranchType btype = BranchType::None;

    /**
     * Word offset (addr/4 - base/4) of the taken target, or
     * kNoTarget for returns/indirect jumps/non-branches.
     */
    std::uint32_t takenTargetWord = kNoTarget;

    static constexpr std::uint32_t kNoTarget = 0xffffffffu;

    bool isBranch() const { return btype != BranchType::None; }
    bool isStub() const { return block == kNoBlock; }
};

/**
 * The placed binary. Lookup is O(1) by instruction address.
 */
class CodeImage
{
  public:
    /**
     * @param prog Program to place (must outlive the image).
     * @param order Permutation of all block ids (each exactly once).
     * @param base Base address of the text segment.
     */
    CodeImage(const Program &prog, const std::vector<BlockId> &order,
              Addr base = 0x400000);

    Addr baseAddr() const { return base_; }
    Addr endAddr() const { return base_ + instsToBytes(insts_.size()); }

    bool
    contains(Addr pc) const
    {
        return pc >= base_ && pc < endAddr() && (pc - base_) % 4 == 0;
    }

    /** Static instruction at @p pc. @pre contains(pc). */
    const StaticInst &
    inst(Addr pc) const
    {
        return insts_[(pc - base_) / kInstBytes];
    }

    /**
     * Packed per-instruction meta bytes in address order
     * (`meta()[(pc - baseAddr()) / kInstBytes]`), in the layout an
     * OracleView reads: class in bits 0-2, branch type in bits 3-5
     * (see packMeta()). The taken bit is never set here: it is the
     * dynamic part of the path. A zero branch field means not a
     * branch, so hot fetch loops can scan a line's worth with the
     * util/simd.hh byte-mask primitives instead of loading a
     * StaticInst per instruction. kMetaPadBytes zero bytes follow
     * the last instruction, so a 32-byte scan starting at any
     * instruction stays inside the array.
     */
    const std::uint8_t *meta() const { return meta_.data(); }

    /** Start address of block @p id. */
    Addr
    blockAddr(BlockId id) const
    {
        return block_addr_.at(id);
    }

    /** Taken-target address of the branch at @p pc, or kNoAddr. */
    Addr
    takenTarget(Addr pc) const
    {
        const StaticInst &si = inst(pc);
        if (si.takenTargetWord == StaticInst::kNoTarget)
            return kNoAddr;
        return base_ + instsToBytes(si.takenTargetWord);
    }

    /**
     * For the conditional branch ending block @p id: true when the
     * layout made the CFG *target* successor the taken direction
     * (normal polarity); false when the branch was inverted so the
     * CFG target is the fall-through.
     */
    bool
    normalPolarity(BlockId id) const
    {
        return normal_polarity_.at(id);
    }

    /** Total placed instructions including stubs. */
    std::size_t numInsts() const { return insts_.size(); }

    /** Number of stub jumps the placement needed. */
    std::size_t numStubs() const { return num_stubs_; }

    const Program &program() const { return *prog_; }

    /** Address of the program entry block. */
    Addr entryAddr() const { return blockAddr(prog_->entry()); }

    /**
     * Address of the instruction sequentially after block @p id
     * (the return address for a call block; the not-taken successor
     * address for a conditional).
     */
    Addr
    seqAfter(BlockId id) const
    {
        return blockAddr(id) + instsToBytes(prog_->block(id).numInsts);
    }

  private:
    const Program *prog_;
    Addr base_;
    std::vector<StaticInst> insts_;
    /** insts_[i] packed for SIMD scans (see meta()), plus padding. */
    std::vector<std::uint8_t> meta_;
    std::vector<Addr> block_addr_;
    std::vector<bool> normal_polarity_;
    std::size_t num_stubs_ = 0;
};

/** Identity block order: the unoptimized compiler layout. */
std::vector<BlockId> baselineOrder(const Program &prog);

} // namespace sfetch

#endif // SFETCH_LAYOUT_CODE_IMAGE_HH
