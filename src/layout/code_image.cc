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
};

} // namespace

CodeImage::CodeImage(const Program &prog,
                     const std::vector<BlockId> &order, Addr base)
    : prog_(&prog), base_(base),
      block_addr_(prog.numBlocks(), kNoAddr),
      normal_polarity_(prog.numBlocks(), true)
{
    assert(order.size() == prog.numBlocks());

    // Pass 1: decide stubs and polarities, assign addresses.
    std::vector<Placement> plan;
    plan.reserve(order.size());
    Addr cur = base_;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const BasicBlock &b = prog.block(order[i]);
        assert(block_addr_[b.id] == kNoAddr && "block placed twice");
        block_addr_[b.id] = cur;
        cur += b.sizeBytes();

        Placement pl{b.id, false, kNoBlock};
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
            if (next == b.fallthrough) {
                normal_polarity_[b.id] = true;
            } else if (next == b.target) {
                // Branch inverted: CFG target becomes fall-through.
                normal_polarity_[b.id] = false;
            } else {
                normal_polarity_[b.id] = true;
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
            cur += kInstBytes;
            ++num_stubs_;
        }
        plan.push_back(pl);
    }

    // Pass 2: materialize StaticInsts now that every address is known.
    insts_.reserve((cur - base_) / kInstBytes);
    for (const Placement &pl : plan) {
        const BasicBlock &b = prog.block(pl.block);
        for (std::uint32_t k = 0; k < b.numInsts; ++k) {
            StaticInst si;
            si.block = b.id;
            si.offset = static_cast<std::uint16_t>(k);
            si.cls = b.insts[k];
            if (k + 1 == b.numInsts && b.hasBranch()) {
                si.btype = b.branchType;
                Addr tgt = kNoAddr;
                switch (b.branchType) {
                  case BranchType::CondDirect:
                    tgt = normal_polarity_[b.id]
                        ? block_addr_[b.target]
                        : block_addr_[b.fallthrough];
                    break;
                  case BranchType::Jump:
                  case BranchType::Call:
                    tgt = block_addr_[b.target];
                    break;
                  default:
                    break; // return / indirect: dynamic target
                }
                if (tgt != kNoAddr) {
                    si.takenTargetWord = static_cast<std::uint32_t>(
                        (tgt - base_) / kInstBytes);
                }
            }
            insts_.push_back(si);
        }
        if (pl.stubAfter) {
            StaticInst si;
            si.block = kNoBlock;
            si.offset = 0;
            si.cls = InstClass::Branch;
            si.btype = BranchType::Jump;
            si.takenTargetWord = static_cast<std::uint32_t>(
                (block_addr_[pl.stubTarget] - base_) / kInstBytes);
            insts_.push_back(si);
        }
    }
    assert(base_ + instsToBytes(insts_.size()) == cur);

    meta_.assign(insts_.size() + kMetaPadBytes, 0);
    for (std::size_t i = 0; i < insts_.size(); ++i)
        meta_[i] = packMeta(insts_[i].cls, insts_[i].btype);
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
