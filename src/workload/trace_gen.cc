#include "workload/trace_gen.hh"

#include <cassert>

namespace sfetch
{

TraceGenerator::TraceGenerator(const Program &prog,
                               const WorkloadModel &model,
                               std::uint64_t seed)
    : prog_(&prog), model_(model), seed_(seed),
      rng_(mix64(seed), 0x2545f4914f6cdd1dULL), cur_(prog.entry())
{
    model_.reset();
}

ControlRecord
TraceGenerator::next()
{
    const BasicBlock &b = prog_->block(cur_);
    BlockId succ = kNoBlock;

    switch (b.branchType) {
      case BranchType::None:
        succ = b.fallthrough;
        break;
      case BranchType::CondDirect:
        succ = model_.choosePrimary(b.id, rng_) ? b.target
                                                : b.fallthrough;
        break;
      case BranchType::Jump:
        succ = b.target;
        break;
      case BranchType::Call:
        if (call_stack_.size() < kMaxCallDepth)
            call_stack_.push_back(b.fallthrough);
        succ = b.target;
        break;
      case BranchType::Return:
        if (call_stack_.empty()) {
            // Program finished an outer activation: restart.
            succ = prog_->entry();
        } else {
            succ = call_stack_.back();
            call_stack_.pop_back();
        }
        break;
      case BranchType::IndirectJump:
        succ = model_.chooseIndirect(b.id, prog_->indirectTargets(b.id),
                                     rng_);
        break;
    }

    assert(succ != kNoBlock);
    ControlRecord rec{cur_, succ};
    cur_ = succ;
    return rec;
}

void
TraceGenerator::reset()
{
    rng_ = Pcg32(mix64(seed_), 0x2545f4914f6cdd1dULL);
    model_.reset();
    call_stack_.clear();
    cur_ = prog_->entry();
}


} // namespace sfetch
