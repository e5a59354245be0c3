/**
 * @file
 * The fetch engine contract shared by all five front ends (EV8, FTB,
 * stream, trace cache, and the sequential `seq` reference).
 *
 * Engines are *self-directed*: they walk the static CodeImage using
 * their own predictors, exactly like hardware running ahead of
 * resolution, and therefore naturally fetch down wrong paths. The
 * processor model compares the fetched PC stream against the oracle
 * (committed) path, detects divergence, and calls redirect() when the
 * mispredicted branch resolves. Engines never see the oracle.
 *
 * Model conventions:
 *  - Instructions are predecoded in the i-cache: the type and taken
 *    target of direct branches are visible at fetch. Conditional
 *    directions, return targets, and indirect targets must be
 *    predicted.
 *  - When an engine has no target for a branch it must keep fetching
 *    sequentially (never stall waiting for a redirect it cannot know
 *    about); the divergence is caught and repaired by the processor.
 *  - Engines deliver runs, not instructions: each cycle's output is a
 *    few sequential runs (start, length, token), one per fetch block,
 *    trace segment, or checkpointed branch. The token of a run is the
 *    recovery token of every branch in it, so an engine that
 *    checkpoints each branch separately ends a run at each branch.
 *  - An engine lives for one run of the processor: it starts at the
 *    image's entry and has no reset; a new run builds a new engine.
 *
 * The front-end mechanisms the engines share are declared once here:
 *  - ICacheReader::read(): the i-cache run read. One line access per
 *    cycle, clamped at the line, a caller bound and the image end,
 *    with the run's meta bytes.
 *  - scanBlock(): the block scan of a coupled fetch. It reads a run
 *    up to its first taken branch, with jumps, calls and returns
 *    steered by predecode (predecodeSteer()) and indirect jumps by
 *    a BTB; only the source of a conditional's direction varies.
 *  - drainFetchRequest(): the i-cache stage of a decoupled front end
 *    (FTB and streams), draining the fetch target queue.
 *  - BranchRecovery: the return address stack, the speculative and
 *    committed direction histories and a checkpoint per token, with
 *    the one redirect repair every predicting engine applies.
 */

#ifndef SFETCH_FETCH_FETCH_ENGINE_HH
#define SFETCH_FETCH_FETCH_ENGINE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>

#include "bpred/btb.hh"
#include "bpred/history.hh"
#include "bpred/ras.hh"
#include "cache/cache.hh"
#include "fetch/token_ring.hh"
#include "isa/instruction.hh"
#include "layout/code_image.hh"
#include "util/fixed_ring.hh"
#include "util/simd.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace sfetch
{

/** A run of sequential instructions delivered in one fetch cycle. */
struct FetchRun
{
    Addr start = kNoAddr;
    std::uint32_t len = 0;
    /**
     * Recovery token of every branch in the run (0 when there is
     * none to restore): identifies the checkpoint the engine must
     * restore if one of them turns out mispredicted.
     */
    std::uint64_t token = 0;
};

/**
 * One cycle's worth of fetched instructions as sequential runs: a
 * caller-owned, fixed-capacity inline array. The processor hands the
 * same bundle to the engine every cycle, so the simulate-one-cycle
 * path never touches the heap.
 */
class FetchBundle
{
  public:
    /**
     * Widest supported fetch per cycle (2x the paper's max width), in
     * instructions; every run holds at least one, so it bounds the
     * runs too.
     */
    static constexpr unsigned kCapacity = 16;

    void
    clear()
    {
        runs_ = 0;
        insts_ = 0;
    }

    bool empty() const { return insts_ == 0; }

    /** Instructions in the bundle (the sum of the run lengths). */
    unsigned size() const { return insts_; }

    /** Runs in the bundle. */
    unsigned numRuns() const { return runs_; }

    /** Append the @p len instructions from @p start. */
    void
    push(Addr start, std::uint32_t len, std::uint64_t token)
    {
        assert(len >= 1 && insts_ + len <= kCapacity &&
               "FetchBundle overflow: engine produced more than the "
               "supported fetch width");
        run_[runs_++] = FetchRun{start, len, token};
        insts_ += len;
    }

    const FetchRun &
    run(unsigned i) const
    {
        assert(i < runs_);
        return run_[i];
    }

    const FetchRun *begin() const { return run_; }
    const FetchRun *end() const { return run_ + runs_; }

  private:
    FetchRun run_[kCapacity];
    unsigned runs_ = 0;
    unsigned insts_ = 0;
};

/** Resolution information passed to redirect(). */
struct ResolvedBranch
{
    Addr pc = kNoAddr;          //!< the mispredicted branch
    BranchType type = BranchType::None;
    bool taken = false;         //!< actual direction
    Addr target = kNoAddr;      //!< actual successor PC
    std::uint64_t token = 0;    //!< engine token of the branch
};

/** Common interface of all front ends. */
class FetchEngine
{
  public:
    virtual ~FetchEngine() = default;

    /**
     * Run one fetch cycle: append up to @p max_insts instructions to
     * @p out, as sequential runs. May produce fewer (or none) on
     * i-cache misses, predictor stalls, or taken-branch cycle
     * breaks. The caller owns (and clears) the bundle; @p max_insts
     * is at least 1 and never exceeds FetchBundle::kCapacity minus
     * the bundle's current size.
     */
    virtual void fetchCycle(Cycle now, unsigned max_insts,
                            FetchBundle &out) = 0;

    /**
     * A branch fetched earlier was mispredicted and has resolved:
     * squash all younger state, repair histories, and resume at
     * @c rb.target.
     */
    virtual void redirect(const ResolvedBranch &rb) = 0;

    /** Train commit-side structures with a retired branch. */
    virtual void trainCommit(const CommittedBranch &cb) = 0;

    /** Display name. */
    virtual std::string name() const = 0;

    /** Engine-internal statistics. */
    virtual StatSet stats() const { return StatSet{}; }
};

/**
 * Fetch target queue entry: a request for a run of sequential
 * instructions, updated in place as the i-cache drains it (the
 * paper's "fetch request update mechanism", Fig. 6).
 */
struct FetchRequest
{
    Addr start = kNoAddr;
    std::uint32_t lenInsts = 0;
    std::uint64_t token = 0;
    /**
     * True when the request length is a real prediction; false for
     * sequential fall-back requests (run until something redirects).
     */
    bool bounded = true;
};

/**
 * Fixed-capacity FIFO of fetch requests, backed by a FixedRing: the
 * storage is allocated once at construction, so the per-cycle
 * predict/drain traffic never allocates.
 */
class FetchTargetQueue
{
  public:
    explicit FetchTargetQueue(std::size_t capacity = 4)
        : queue_(capacity)
    {}

    bool full() const { return queue_.full(); }
    bool empty() const { return queue_.empty(); }
    std::size_t size() const { return queue_.size(); }
    std::size_t capacity() const { return queue_.capacity(); }

    /**
     * Enqueue @p req. The capacity is enforced here, not by caller
     * convention: pushing into a full queue asserts in debug builds
     * and drops the request (returning false) in release builds.
     */
    bool
    push(const FetchRequest &req)
    {
        assert(!full() &&
               "FetchTargetQueue overflow: check full() first");
        if (full())
            return false;
        queue_.push_back(req);
        return true;
    }

    FetchRequest &front() { return queue_.front(); }

    void pop() { queue_.pop_front(); }

    void clear() { queue_.clear(); }

  private:
    FixedRing<FetchRequest> queue_;
};

/** A run of sequential instructions read from the i-cache. */
struct ICacheRun
{
    Addr start = kNoAddr;
    unsigned len = 0; //!< 0 when nothing was read this cycle
    /** Meta bytes of the run (CodeImage::metaAt(start)). */
    const std::uint8_t *meta = nullptr;
};

/**
 * Single-ported wide-line i-cache reader over one image: models one
 * line access per cycle with blocking misses.
 */
class ICacheReader
{
  public:
    ICacheReader(MemoryHierarchy *mem, const CodeImage &image,
                 unsigned line_bytes)
        : mem_(mem), image_(&image), lineBytes_(line_bytes)
    {}

    /**
     * Attempt to read up to @p bound instructions from @p pc this
     * cycle.
     * @return the run from @p pc to the first of the end of its
     * cache line, @p bound and the image end; an empty run while a
     * miss is being serviced, or, without a cache access, when the
     * image does not hold @p pc (a wrong path ran off it).
     */
    ICacheRun
    read(Cycle now, Addr pc, unsigned bound)
    {
        if (!image_->contains(pc) || now < readyAt_)
            return {};
        Cycle lat = mem_->accessInst(pc);
        if (lat > mem_->config().l1Latency) {
            // Miss: line arrives after the full latency.
            readyAt_ = now + lat;
            ++misses_;
            return {};
        }
        // The run walks sequentially from a contained pc, so the
        // image end is the only bound besides the line and the
        // caller's.
        const Addr end = std::min(lineEnd(pc), image_->endAddr());
        return {pc,
                std::min(bound,
                         static_cast<unsigned>((end - pc) / kInstBytes)),
                image_->metaAt(pc)};
    }

    /** Address just past the cache line holding @p pc. */
    Addr
    lineEnd(Addr pc) const
    {
        return (pc & ~Addr(lineBytes_ - 1)) + lineBytes_;
    }

    /**
     * Host-side prefetch of the tag state a future read(@p pc) will
     * probe: callers that know next cycle's fetch address hide the
     * host memory latency of the modelled i-cache lookup. Pure hint;
     * no modelled state changes.
     */
    void prefetch(Addr pc) const { mem_->prefetchInst(pc); }

    std::uint64_t misses() const { return misses_; }

  private:
    MemoryHierarchy *mem_;
    const CodeImage *image_;
    unsigned lineBytes_;
    Cycle readyAt_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Where the unconditional transfer of type @p bt at @p bpc goes by
 * predecode: a jump or call to its taken target (a call pushing its
 * return address on @p ras), a return to the RAS prediction. An
 * indirect jump has no target here and falls through.
 */
inline Addr
predecodeSteer(BranchType bt, Addr bpc, const CodeImage &image,
               ReturnAddressStack &ras)
{
    const Addr seq = bpc + kInstBytes;
    switch (bt) {
      case BranchType::Jump:
        return image.takenTarget(bpc);
      case BranchType::Call:
        ras.push(seq);
        return image.takenTarget(bpc);
      case BranchType::Return:
        return predictReturn(ras, image, seq);
      default:
        return seq;
    }
}

/**
 * The speculative state a predicting front end repairs on a
 * misprediction: the return address stack, the speculative and
 * committed global direction histories, and a per-token checkpoint
 * of the first two (Section 3.2 of the paper: the shadow RAS state
 * travels with each in-flight branch).
 */
class BranchRecovery
{
  public:
    explicit BranchRecovery(std::size_t ras_entries) : ras(ras_entries) {}

    ReturnAddressStack ras;
    GlobalHistory specHist;   //!< updated at predict time
    GlobalHistory commitHist; //!< updated at commit

    /** Checkpoint the RAS and the speculative history. */
    std::uint64_t
    checkpoint()
    {
        return checkpoints_.put(Checkpoint{ras.save(), specHist.value()});
    }

    /**
     * Repair after @p rb resolved mispredicted: restore the state
     * checkpointed under its token (or, if the token was
     * overwritten, copy the committed history), append a
     * conditional's resolved outcome when @p push_outcome, then
     * replay the branch's own call push or return pop.
     */
    void
    repair(const ResolvedBranch &rb, bool push_outcome)
    {
        if (const Checkpoint *cp = checkpoints_.get(rb.token)) {
            ras.restore(cp->ras);
            specHist.set(cp->hist);
        } else {
            specHist.copyFrom(commitHist);
        }
        if (rb.type == BranchType::CondDirect && push_outcome)
            specHist.push(rb.taken);

        if (rb.type == BranchType::Call)
            ras.push(rb.pc + kInstBytes);
        else if (rb.type == BranchType::Return)
            ras.pop();
    }

  private:
    struct Checkpoint
    {
        ReturnAddressStack::Checkpoint ras;
        std::uint64_t hist = 0;
    };
    TokenRing<Checkpoint> checkpoints_;
};

/** Where a block scan ended its run. */
struct BlockEnd
{
    unsigned len = 0; //!< instructions of the run fetched this cycle
    Addr next = kNoAddr; //!< next fetch address
};

/**
 * The block scan of a coupled i-cache fetch: one meta-mask scan of
 * @p run up to its first taken branch. A conditional takes its
 * direction from @p cond_dir(pc) and pushes it onto @p rec's
 * speculative history; jumps, calls and returns are steered by
 * predecode (predecodeSteer()), and an indirect jump by @p btb when
 * it holds a target in the image.
 */
template <typename CondDir>
inline BlockEnd
scanBlock(const ICacheRun &run, const CodeImage &image,
          BranchRecovery &rec, Btb &btb, CondDir &&cond_dir)
{
    for (std::uint32_t bmask =
             simd::maskTestU8(run.meta, run.len, kMetaBranchBits);
         bmask; bmask &= bmask - 1) {
        const unsigned j = simd::bottomBit(bmask);
        const Addr bpc = run.start + instsToBytes(j);
        const BranchType bt = metaBranchType(run.meta[j]);
        Addr next;
        if (bt == BranchType::CondDirect) {
            const bool dir = cond_dir(bpc);
            rec.specHist.push(dir);
            if (!dir)
                continue;
            next = image.takenTarget(bpc);
        } else if (bt == BranchType::IndirectJump) {
            const BtbEntry e = btb.lookup(bpc);
            if (!e.hit || !image.contains(e.target))
                continue; // no target: keep fetching sequentially
            next = e.target;
        } else {
            next = predecodeSteer(bt, bpc, image, rec.ras);
        }
        // One taken branch per cycle through the i-cache.
        return {j + 1, next};
    }
    return {run.len, run.start + instsToBytes(run.len)};
}

/**
 * The i-cache stage of a decoupled front end (FTB and streams): drain
 * the FTQ head through @p reader into @p out as one run, updating the
 * request in place. One meta-byte scan finds the run's branches; the
 * first unconditional transfer before the end of the request ends
 * the run and steers fetch by predecode (the taken target, or the
 * return address stack for a return; an indirect jump has no target
 * here and falls through), clearing the queue.
 *
 * An unconditional transfer that ends a bounded request is its
 * predicted end, already steered by the predictor, so it does not
 * steer here; one before the end does. The FTB never has one: its
 * blocks end at every branch that has ever been taken, and an
 * unconditional transfer always is, so only its sequential (FTB-miss)
 * requests steer. A stream predictor entry can be stale or aliased,
 * and then a bounded stream request steers too.
 *
 * @return the steered fetch address, or kNoAddr when the run did not
 *         steer.
 */
inline Addr
drainFetchRequest(FetchTargetQueue &ftq, ICacheReader &reader,
                  const CodeImage &image, ReturnAddressStack &ras,
                  Cycle now, unsigned max_insts, FetchBundle &out)
{
    if (ftq.empty())
        return kNoAddr;
    FetchRequest &req = ftq.front();
    if (!image.contains(req.start)) {
        // Wrong-path request ran off the image; drop it.
        ftq.pop();
        return kNoAddr;
    }

    const ICacheRun run =
        reader.read(now, req.start, std::min(max_insts, req.lenInsts));
    if (run.len == 0)
        return kNoAddr;

    const unsigned n = run.len;
    const std::uint8_t *meta = run.meta;
    std::uint32_t steer = simd::maskTestU8(meta, n, kMetaBranchBits) &
        ~simd::maskEqU8(meta, n, kMetaBranchBits,
                        metaBranchField(BranchType::CondDirect));
    if (req.bounded && req.lenInsts == n)
        steer &= ~(std::uint32_t(1) << (n - 1));

    const unsigned len = steer ? simd::bottomBit(steer) + 1 : n;
    out.push(req.start, len, req.token);
    const Addr seq = req.start + instsToBytes(len);

    if (steer) {
        ftq.clear();
        return predecodeSteer(metaBranchType(meta[len - 1]),
                              seq - kInstBytes, image, ras);
    }

    req.start = seq;
    req.lenInsts -= len;
    if (req.lenInsts == 0)
        ftq.pop();
    else
        reader.prefetch(req.start); // next cycle probes this line
    return kNoAddr;
}

} // namespace sfetch

#endif // SFETCH_FETCH_FETCH_ENGINE_HH
