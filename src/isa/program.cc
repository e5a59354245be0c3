#include "isa/program.hh"

#include <sstream>

namespace sfetch
{

Program::Program(std::string name, std::vector<BlockSpec> blocks,
                 BlockId entry)
    : name_(std::move(name)), entry_(entry)
{
    std::size_t num_targets = 0;
    for (const BlockSpec &s : blocks) {
        static_insts_ += s.numInsts;
        num_targets += s.indirectTargets.size();
    }
    blocks_.reserve(blocks.size());
    classes_.reserve(static_insts_);
    targets_.reserve(num_targets);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        BlockSpec &s = blocks[i];
        if (s.insts.size() != s.numInsts && badInsts_ == kNoBlock)
            badInsts_ = static_cast<BlockId>(i);
        // A mis-sized class vector is reported by validate(); padding
        // it keeps every block's classes at firstInst meanwhile.
        s.insts.resize(s.numInsts, InstClass::IntAlu);
        BasicBlock b = s;
        b.id = static_cast<BlockId>(i);
        b.firstInst = static_cast<std::uint32_t>(classes_.size());
        b.firstTarget = static_cast<std::uint32_t>(targets_.size());
        b.numTargets =
            static_cast<std::uint32_t>(s.indirectTargets.size());
        classes_.insert(classes_.end(), s.insts.begin(), s.insts.end());
        targets_.insert(targets_.end(), s.indirectTargets.begin(),
                        s.indirectTargets.end());
        blocks_.push_back(b);
    }
}

std::size_t
Program::bytes() const
{
    return blocks_.capacity() * sizeof(BasicBlock) +
        classes_.capacity() + targets_.capacity() * sizeof(BlockId);
}

std::string
Program::validate() const
{
    std::ostringstream err;
    auto fail = [&](BlockId id, const std::string &what) {
        err << name_ << ": block " << id << ": " << what;
        return err.str();
    };

    if (blocks_.empty())
        return name_ + ": program has no blocks";
    if (entry_ >= blocks_.size())
        return name_ + ": entry block out of range";

    auto in_range = [&](BlockId id) { return id < blocks_.size(); };

    for (const auto &b : blocks_) {
        if (b.numInsts == 0)
            return fail(b.id, "empty block");
        if (b.id == badInsts_)
            return fail(b.id, "insts vector size mismatch");
        const InstClass *cls = insts(b.id);
        if (b.hasBranch() && cls[b.numInsts - 1] != InstClass::Branch)
            return fail(b.id, "terminator is not a Branch instruction");
        if (!b.hasBranch()) {
            for (std::uint32_t k = 0; k < b.numInsts; ++k) {
                if (cls[k] == InstClass::Branch)
                    return fail(b.id, "branch inside fallthrough block");
            }
        }

        switch (b.branchType) {
          case BranchType::None:
            if (!in_range(b.fallthrough))
                return fail(b.id, "fallthrough successor out of range");
            break;
          case BranchType::CondDirect:
            if (!in_range(b.target) || !in_range(b.fallthrough))
                return fail(b.id, "conditional successor out of range");
            break;
          case BranchType::Jump:
            if (!in_range(b.target))
                return fail(b.id, "jump target out of range");
            break;
          case BranchType::Call:
            if (!in_range(b.target) || !in_range(b.fallthrough))
                return fail(b.id, "call target/continuation out of range");
            break;
          case BranchType::Return:
            break;
          case BranchType::IndirectJump:
            if (b.numTargets == 0)
                return fail(b.id, "indirect jump with no targets");
            for (BlockId t : indirectTargets(b.id)) {
                if (!in_range(t))
                    return fail(b.id, "indirect target out of range");
            }
            break;
        }
    }
    return "";
}

} // namespace sfetch
