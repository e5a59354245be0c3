#include "layout/code_image.hh"

#include <cassert>

namespace sfetch
{

namespace
{

/** Placement plan entry: a block, optionally followed by a stub. */
struct Placement
{
    BlockId block;
    bool stubAfter = false;
    BlockId stubTarget = kNoBlock;
    /** A conditional whose CFG target became the fall-through. */
    bool inverted = false;
};

constexpr std::uint32_t kUnplaced = 0xffffffffu;

} // namespace

CodeImage::CodeImage(const Program &prog,
                     const std::vector<BlockId> &order, Addr base)
    : prog_(&prog), base_(base), block_word_(prog.numBlocks(), kUnplaced)
{
    assert(order.size() == prog.numBlocks());

    // Pass 1: decide stubs and polarities, assign addresses.
    std::vector<Placement> plan;
    plan.reserve(order.size());
    std::uint32_t cur = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const BasicBlock &b = prog.block(order[i]);
        assert(block_word_[b.id] == kUnplaced && "block placed twice");
        block_word_[b.id] = cur;
        cur += b.numInsts;

        Placement pl{b.id, false, kNoBlock, false};
        BlockId next =
            (i + 1 < order.size()) ? order[i + 1] : kNoBlock;

        switch (b.branchType) {
          case BranchType::None:
            if (next != b.fallthrough) {
                pl.stubAfter = true;
                pl.stubTarget = b.fallthrough;
            }
            break;
          case BranchType::CondDirect:
            if (next == b.target && next != b.fallthrough) {
                // Branch inverted: CFG target becomes fall-through.
                pl.inverted = true;
            } else if (next != b.fallthrough) {
                pl.stubAfter = true;
                pl.stubTarget = b.fallthrough;
            }
            break;
          case BranchType::Call:
            // The return continuation must start at the return
            // address; bridge with a stub when not adjacent.
            if (next != b.fallthrough) {
                pl.stubAfter = true;
                pl.stubTarget = b.fallthrough;
            }
            break;
          default:
            break; // jumps/returns/indirects end the run freely
        }

        if (pl.stubAfter) {
            ++cur;
            ++num_stubs_;
        }
        plan.push_back(pl);
    }

    // Pass 2: write each instruction's meta byte and taken-target
    // word now that every address is known.
    meta_.assign(cur + kMetaPadBytes, 0);
    targets_.assign(cur, StaticInst::kNoTarget);
    std::size_t i = 0;
    for (const Placement &pl : plan) {
        const BasicBlock &b = prog.block(pl.block);
        const InstClass *cls = prog.insts(b.id);
        for (std::uint32_t k = 0; k + 1 < b.numInsts; ++k)
            meta_[i++] = packMeta(cls[k], BranchType::None);
        meta_[i] = packMeta(cls[b.numInsts - 1], b.branchType);
        switch (b.branchType) {
          case BranchType::CondDirect:
            targets_[i] = pl.inverted ? block_word_[b.fallthrough]
                                      : block_word_[b.target];
            break;
          case BranchType::Jump:
          case BranchType::Call:
            targets_[i] = block_word_[b.target];
            break;
          default:
            break; // return / indirect: dynamic target
        }
        ++i;
        if (pl.stubAfter) {
            meta_[i] = packMeta(InstClass::Branch, BranchType::Jump);
            targets_[i] = block_word_[pl.stubTarget];
            ++i;
        }
    }
    assert(i == cur);
}

std::size_t
CodeImage::bytes() const
{
    return meta_.capacity() + targets_.capacity() * sizeof(std::uint32_t) +
        block_word_.capacity() * sizeof(std::uint32_t);
}

std::vector<BlockId>
baselineOrder(const Program &prog)
{
    std::vector<BlockId> order(prog.numBlocks());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<BlockId>(i);
    return order;
}

} // namespace sfetch
