/**
 * @file
 * CodeImage: a Program placed at concrete addresses under a given
 * block order. This is the "binary" the fetch engines walk — both on
 * the correct path and on wrong paths. It keeps one 5-byte record per
 * instruction address, a meta byte (class and branch type) plus a
 * taken-target word, and decodes a StaticInst from the two on demand.
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

/** One placed instruction, as CodeImage::inst() decodes it. */
struct StaticInst
{
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
    Addr endAddr() const { return base_ + instsToBytes(numInsts()); }

    bool
    contains(Addr pc) const
    {
        return pc >= base_ && pc < endAddr() && (pc - base_) % 4 == 0;
    }

    /**
     * Static instruction at @p pc, decoded from its meta byte and
     * taken-target word. Stub jumps decode as Branch-class Jumps;
     * the image does not say which block a pc belongs to (the
     * Program's block sizes and blockAddr() do). @pre contains(pc).
     */
    StaticInst
    inst(Addr pc) const
    {
        const std::size_t i = (pc - base_) / kInstBytes;
        const std::uint8_t mb = meta_[i];
        return {static_cast<InstClass>(mb & kMetaClassBits),
                metaBranchType(mb), targets_[i]};
    }

    /**
     * Packed per-instruction meta bytes in address order
     * (`meta()[(pc - baseAddr()) / kInstBytes]`), in the layout an
     * OracleView reads: class in bits 0-2, branch type in bits 3-5
     * (see packMeta()). The taken bit is never set here: it is the
     * dynamic part of the path. A zero branch field means not a
     * branch, so hot fetch loops can scan a line's worth with the
     * util/simd.hh byte-mask primitives instead of decoding an
     * instruction at a time. kMetaPadBytes zero bytes follow the
     * last instruction, so a 32-byte scan starting at any
     * instruction stays inside the array.
     */
    const std::uint8_t *meta() const { return meta_.data(); }

    /** The meta bytes from the instruction at @p pc on. */
    const std::uint8_t *
    metaAt(Addr pc) const
    {
        return meta_.data() + (pc - base_) / kInstBytes;
    }

    /** Start address of block @p id. */
    Addr
    blockAddr(BlockId id) const
    {
        return base_ + instsToBytes(block_word_.at(id));
    }

    /** Taken-target address of the branch at @p pc, or kNoAddr. */
    Addr
    takenTarget(Addr pc) const
    {
        const std::uint32_t w = targets_[(pc - base_) / kInstBytes];
        return w == StaticInst::kNoTarget ? kNoAddr
                                          : base_ + instsToBytes(w);
    }

    /**
     * For the conditional branch ending block @p id: true when the
     * layout made the CFG *target* successor the taken direction
     * (normal polarity); false when the branch was inverted so the
     * CFG target is the fall-through. True for other blocks.
     */
    bool
    normalPolarity(BlockId id) const
    {
        const BasicBlock &b = prog_->block(id);
        return b.branchType != BranchType::CondDirect ||
            takenTarget(seqAfter(id) - kInstBytes) ==
            blockAddr(b.target);
    }

    /** Total placed instructions including stubs. */
    std::size_t numInsts() const { return targets_.size(); }

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

    /**
     * Heap bytes of the image, by vector capacity: 5 per placed
     * instruction, kMetaPadBytes, and 4 per block.
     */
    std::size_t bytes() const;

  private:
    const Program *prog_;
    Addr base_;
    /** Meta byte per instruction (see meta()), plus padding. */
    std::vector<std::uint8_t> meta_;
    /** Taken-target word per instruction (StaticInst). */
    std::vector<std::uint32_t> targets_;
    /** Start word offset of each block, by id. */
    std::vector<std::uint32_t> block_word_;
    std::size_t num_stubs_ = 0;
};

/** Identity block order: the unoptimized compiler layout. */
std::vector<BlockId> baselineOrder(const Program &prog);

} // namespace sfetch

#endif // SFETCH_LAYOUT_CODE_IMAGE_HH
