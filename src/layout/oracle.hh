/**
 * @file
 * OracleStream: expands the committed control-flow path produced by
 * TraceGenerator into an instruction-level stream over a concrete
 * CodeImage (addresses, taken/not-taken directions after layout
 * polarization, stub jumps, return addresses). This is the
 * architectural path the processor model retires; the fetch engines
 * race ahead of it speculatively. Only OracleDecoder, which
 * stream-encodes it, and the tests, their reference, read it; all
 * else walks the encoding through a RunWalker (layout/oracle_arena.hh).
 */

#ifndef SFETCH_LAYOUT_ORACLE_HH
#define SFETCH_LAYOUT_ORACLE_HH

#include <vector>

#include "layout/code_image.hh"
#include "workload/trace_gen.hh"

namespace sfetch
{

/** One committed-path instruction. */
struct OracleInst
{
    Addr pc = kNoAddr;
    InstClass cls = InstClass::IntAlu;
    BranchType btype = BranchType::None;
    bool taken = false;  //!< meaningful when btype != None
    Addr nextPc = kNoAddr; //!< committed successor instruction

    bool isBranch() const { return btype != BranchType::None; }
};

/**
 * Committed instruction stream, unbounded. Deterministic given
 * (image, model, seed); two OracleStreams with the same arguments
 * produce identical sequences, which the simulator relies on when
 * comparing fetch architectures.
 *
 * Instructions are generated incrementally — a cursor into the
 * current basic block plus an in-progress stub walk — instead of
 * expanding whole blocks into a queue, so next() never allocates
 * (the return-address stack reserves its bounded depth up front).
 */
class OracleStream
{
  public:
    OracleStream(const CodeImage &image, const WorkloadModel &model,
                 std::uint64_t seed);

    /**
     * Next committed instruction, every field assigned. The in-block
     * fast path is inline; block boundaries and stub walks go
     * through generate().
     */
    OracleInst
    next()
    {
        OracleInst oi;
        if (!tryEmitInBlock(oi))
            generate(oi);
        ++count_;
        return oi;
    }

    std::uint64_t instCount() const { return count_; }

  private:
    /**
     * The in-block fast path: emit the next non-terminator
     * instruction of the current block, assigning every field of
     * @p out. Shared by next() and generate() — the bit-identity
     * guarantee depends on both emitting exactly the same
     * instructions.
     */
    bool
    tryEmitInBlock(OracleInst &out)
    {
        if (!inBlock_ || idx_ + 1 >= block_->numInsts)
            return false;
        out.pc = blockStart_ + instsToBytes(idx_);
        out.cls = cls_[idx_];
        out.btype = BranchType::None;
        out.taken = false;
        out.nextPc = out.pc + kInstBytes;
        ++idx_;
        return true;
    }

    void generate(OracleInst &out);
    /** Enter the next committed block. */
    void startBlock();

    const CodeImage *image_;
    TraceGenerator gen_;

    // Incremental expansion state: the block being emitted, its
    // precomputed terminator, and the stub walk that follows it.
    const BasicBlock *block_ = nullptr;
    const InstClass *cls_ = nullptr; //!< block_'s instruction classes
    Addr blockStart_ = kNoAddr;
    std::uint32_t idx_ = 0; //!< next instruction index in block_
    bool inBlock_ = false;
    OracleInst term_;       //!< the block's terminator instruction
    Addr stubPc_ = kNoAddr; //!< in-progress stub walk; == stubStop_
    Addr stubStop_ = kNoAddr; //!< when there is nothing to walk

    std::vector<Addr> ret_stack_;
    std::uint64_t count_ = 0;
};

} // namespace sfetch

#endif // SFETCH_LAYOUT_ORACLE_HH
