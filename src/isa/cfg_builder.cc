#include "isa/cfg_builder.hh"

#include <cassert>
#include <utility>

namespace sfetch
{

BlockId
CfgBuilder::addBlock(std::uint32_t num_insts)
{
    assert(num_insts >= 1);
    BlockSpec b;
    b.id = static_cast<BlockId>(blocks_.size());
    b.numInsts = num_insts;
    b.branchType = BranchType::None;
    blocks_.push_back(std::move(b));
    return blocks_.back().id;
}

void
CfgBuilder::cond(BlockId id, BlockId taken, BlockId fall)
{
    BlockSpec &b = blocks_.at(id);
    b.branchType = BranchType::CondDirect;
    b.target = taken;
    b.fallthrough = fall;
}

void
CfgBuilder::jump(BlockId id, BlockId target)
{
    BlockSpec &b = blocks_.at(id);
    b.branchType = BranchType::Jump;
    b.target = target;
    b.fallthrough = kNoBlock;
}

void
CfgBuilder::call(BlockId id, BlockId callee, BlockId cont)
{
    BlockSpec &b = blocks_.at(id);
    b.branchType = BranchType::Call;
    b.target = callee;
    b.fallthrough = cont;
}

void
CfgBuilder::ret(BlockId id)
{
    BlockSpec &b = blocks_.at(id);
    b.branchType = BranchType::Return;
    b.target = kNoBlock;
    b.fallthrough = kNoBlock;
}

void
CfgBuilder::indirect(BlockId id, std::vector<BlockId> targets)
{
    BlockSpec &b = blocks_.at(id);
    b.branchType = BranchType::IndirectJump;
    b.indirectTargets = std::move(targets);
    b.target = kNoBlock;
    b.fallthrough = kNoBlock;
}

void
CfgBuilder::fallthrough(BlockId id, BlockId next)
{
    BlockSpec &b = blocks_.at(id);
    b.branchType = BranchType::None;
    b.target = kNoBlock;
    b.fallthrough = next;
}

void
CfgBuilder::setInsts(BlockId id, std::vector<InstClass> insts)
{
    BlockSpec &b = blocks_.at(id);
    assert(insts.size() == b.numInsts);
    b.insts = std::move(insts);
}

void
CfgBuilder::defaultInsts(BlockSpec &b)
{
    if (!b.insts.empty())
        return;
    b.insts.assign(b.numInsts, InstClass::IntAlu);
    // Sprinkle a deterministic light memory mix so the back-end model
    // sees some loads/stores even in hand-built test programs.
    for (std::uint32_t i = 0; i < b.numInsts; ++i) {
        if (i % 4 == 1)
            b.insts[i] = InstClass::Load;
        else if (i % 8 == 3)
            b.insts[i] = InstClass::Store;
    }
    if (b.hasBranch())
        b.insts.back() = InstClass::Branch;
}

Program
CfgBuilder::build(BlockId entry) const
{
    std::vector<BlockSpec> blocks = blocks_;
    for (auto &b : blocks)
        defaultInsts(b);
    Program p(name_, std::move(blocks), entry);
    assert(p.validate().empty() && "CfgBuilder produced invalid program");
    return p;
}

} // namespace sfetch
