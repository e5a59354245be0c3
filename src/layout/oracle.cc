#include "layout/oracle.hh"

#include <cassert>

namespace sfetch
{

OracleStream::OracleStream(const CodeImage &image,
                           const WorkloadModel &model,
                           std::uint64_t seed)
    : image_(&image), gen_(image.program(), model, seed)
{
    ret_stack_.reserve(TraceGenerator::kMaxCallDepth);
}

void
OracleStream::generate(OracleInst &oi)
{
    for (;;) {
        if (tryEmitInBlock(oi))
            return;
        if (inBlock_) {
            // Terminator, then any stub walk scheduled after it.
            inBlock_ = false;
            oi = term_;
            return;
        }

        if (stubPc_ != stubStop_) {
            assert(image_->inst(stubPc_).btype == BranchType::Jump &&
                   "non-jump on a sequential gap");
            oi.pc = stubPc_;
            oi.cls = InstClass::Branch;
            oi.btype = BranchType::Jump;
            oi.taken = true;
            oi.nextPc = image_->takenTarget(stubPc_);
            stubPc_ = oi.nextPc;
            return;
        }

        startBlock();
    }
}

void
OracleStream::startBlock()
{
    const ControlRecord rec = gen_.next();

    const Program &prog = image_->program();
    const BasicBlock &b = prog.block(rec.block);
    const Addr block_start = image_->blockAddr(rec.block);
    const Addr succ_addr = image_->blockAddr(rec.next);

    block_ = &b;
    cls_ = prog.insts(b.id);
    blockStart_ = block_start;
    idx_ = 0;
    inBlock_ = true;
    stubPc_ = stubStop_ = kNoAddr;

    OracleInst &term = term_;
    term = OracleInst{};
    term.pc = block_start + instsToBytes(b.numInsts - 1);
    term.cls = cls_[b.numInsts - 1];
    term.nextPc = term.pc + kInstBytes;

    const Addr seq = image_->seqAfter(b.id);

    switch (b.branchType) {
      case BranchType::None:
        // Not a branch; sequential flow, possibly via a stub.
        term.nextPc = seq;
        stubPc_ = seq;
        stubStop_ = succ_addr;
        break;
      case BranchType::CondDirect: {
        term.btype = BranchType::CondDirect;
        // Taken when control goes where the placed branch points:
        // its layout polarity decides which CFG successor that is.
        // Degenerate diamonds (both successors identical) resolve as
        // taken so the branch still transfers control.
        term.taken = succ_addr == image_->takenTarget(term.pc);
        if (term.taken) {
            term.nextPc = succ_addr;
        } else {
            term.nextPc = seq;
            stubPc_ = seq;
            stubStop_ = succ_addr;
        }
        break;
      }
      case BranchType::Jump:
        term.btype = BranchType::Jump;
        term.taken = true;
        term.nextPc = succ_addr;
        break;
      case BranchType::Call:
        term.btype = BranchType::Call;
        term.taken = true;
        term.nextPc = succ_addr;
        if (ret_stack_.size() < TraceGenerator::kMaxCallDepth)
            ret_stack_.push_back(seq);
        break;
      case BranchType::Return: {
        term.btype = BranchType::Return;
        term.taken = true;
        if (ret_stack_.empty()) {
            // Outer activation finished: restart at the entry.
            term.nextPc = succ_addr;
        } else {
            Addr ret = ret_stack_.back();
            ret_stack_.pop_back();
            term.nextPc = ret;
            stubPc_ = ret;
            stubStop_ = succ_addr;
        }
        break;
      }
      case BranchType::IndirectJump:
        term.btype = BranchType::IndirectJump;
        term.taken = true;
        term.nextPc = succ_addr;
        break;
    }
}

} // namespace sfetch
