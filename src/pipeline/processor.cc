#include "pipeline/processor.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/simd.hh"

namespace sfetch
{

Processor::Processor(const ProcessorConfig &cfg, FetchEngine *engine,
                     const CodeImage &image, const WorkloadModel &model,
                     MemoryHierarchy *mem, std::uint64_t seed,
                     const OracleArena *arena)
    : cfg_(cfg), engine_(engine), mem_(mem), rob_(cfg.robSize)
{
    // Runtime check, not an assert: the width comes from user
    // configuration, and overrunning the inline FetchBundle array in
    // a release build would be silent memory corruption.
    if (cfg_.width > FetchBundle::kCapacity) {
        throw std::invalid_argument(
            "ProcessorConfig.width " + std::to_string(cfg_.width) +
            " exceeds the supported fetch width " +
            std::to_string(FetchBundle::kCapacity));
    }

    if (minWindowInsts(cfg_) > kOracleWindowInsts / 2)
        throw std::invalid_argument(
            "ProcessorConfig: ROB plus fetch buffer exceed half "
            "the committed-path window (" +
            std::to_string(kOracleWindowInsts) + " entries)");
    // A shared arena replaces the private decoder of (image, model,
    // seed), so it must be that decoder's path: otherwise the seed
    // would be silently ignored, or the engine would fetch from an
    // image whose pcs the arena's path does not follow.
    if (arena && arena->seed() != seed)
        throw std::invalid_argument(
            "Processor: the arena was decoded with seed " +
            std::to_string(arena->seed()) + ", not this run's seed " +
            std::to_string(seed));
    if (arena && arena->image() != &image)
        throw std::invalid_argument(
            "Processor: the arena was decoded from a different "
            "image than this run simulates");
    window_ = arena ? std::make_unique<OracleWindow>(
                          *arena, kOracleWindowInsts)
                    : std::make_unique<OracleWindow>(
                          image, model, seed, kOracleWindowInsts);
    path_ = window_->view();

    for (auto &l : latByCls_)
        l = cfg_.latAlu;
    latByCls_[static_cast<unsigned>(InstClass::IntMul)] = cfg_.latMul;
    latByCls_[static_cast<unsigned>(InstClass::FpAlu)] = cfg_.latFp;
    latByCls_[static_cast<unsigned>(InstClass::Store)] = cfg_.latStore;
    // Branches retire one cycle after they resolve.
    latByCls_[static_cast<unsigned>(InstClass::Branch)] =
        cfg_.branchResolveLat + 1;
}

Cycle
Processor::execLatencyMeta(std::uint8_t mb)
{
    const unsigned cls = mb & kMetaClassBits;
    if (cls == static_cast<unsigned>(InstClass::Load)) {
        assert(dataPos_ < path_.dataLast);
        return mem_->accessData(
            kDataRegionBase + path_.dataOff[dataPos_++ - path_.dataFirst]);
    }
    if (cls == static_cast<unsigned>(InstClass::Store))
        ++dataPos_; // stores allocate but retire immediately
    return latByCls_[cls];
}

CommittedBranch
Processor::committedBranch(std::uint64_t pos, std::uint8_t mb) const
{
    CommittedBranch cb;
    cb.pc = pcAt(pos);
    cb.type = metaBranchType(mb);
    cb.taken = (mb & kMetaTakenBit) != 0;
    cb.target = pcAt(pos + 1);
    return cb;
}

/**
 * Commit: retire the ready run at the ROB head, at most `width`
 * entries (and no further than stopAt_), in program order. The scan
 * finds the run first (ready entries are the common case, so it is a
 * short branch-free walk over contiguous entries), then retires it
 * with one bulk pop and one set of counter updates. The run is
 * consecutive committed positions, so one movemask over the packed
 * meta span finds every branch; only those entries are touched, and
 * the engine trains on them one at a time in commit order.
 */
void
Processor::commitStep(SimStats &st)
{
    const std::size_t lim = std::min<std::size_t>(
        {static_cast<std::size_t>(cfg_.width), rob_.size(),
         static_cast<std::size_t>(stopAt_ - totalCommitted_)});
    std::size_t n = 0;
    while (n < lim && rob_.at(n).completeAt <= now_)
        ++n;
    if (n == 0)
        return;

    const std::uint64_t a0 = totalCommitted_;
    const std::uint8_t *meta = path_.meta + (a0 - path_.first);
    std::uint32_t bmask = simd::maskTestU8(
        meta, static_cast<unsigned>(n), kMetaBranchBits);
    while (bmask) {
        const unsigned j = simd::bottomBit(bmask);
        bmask &= bmask - 1;
        const CommittedBranch cb = committedBranch(a0 + j, meta[j]);
        engine_->trainCommit(cb);
        if (measuring_) {
            ++st.committedBranches;
            if (cb.type == BranchType::CondDirect)
                ++st.committedCondBranches;
        }
    }
    totalCommitted_ += n;
    if (measuring_)
        st.committedInsts += n;
    rob_.pop_front_n(n);
}

/**
 * Host-side hint: the addresses of upcoming data accesses are known,
 * so the (host) cache lines of the d-cache tag state they will touch
 * can be fetched ahead of the dependent model lookups — those sets
 * are effectively random, making them the model's main memory
 * stalls. No modelled state changes.
 */
void
Processor::prefetchData()
{
    const std::uint64_t end = std::min<std::uint64_t>(
        dataPos_ + kDataPrefetchAhead, path_.dataLast);
    for (std::uint64_t k = std::max(dataPrefetched_, dataPos_); k < end;
         ++k)
        mem_->prefetchData(kDataRegionBase +
                           path_.dataOff[k - path_.dataFirst]);
    dataPrefetched_ = std::max(dataPrefetched_, end);
}

void
Processor::dispatchOne(std::uint64_t pos)
{
    RobEntry &re = rob_.push_back_slot();
    re.dispatchedAt = now_;
    const std::uint8_t mb = metaAt(pos);
    re.completeAt = now_ + execLatencyMeta(mb);

    // A declared divergence awaits its faulting branch's dispatch to
    // schedule the redirect.
    if ((mb & kMetaBranchBits) && diverged_ && !redirectTimeKnown_ &&
        pos == faultingPos_) {
        redirectAt_ = now_ + cfg_.branchResolveLat;
        redirectTimeKnown_ = true;
        redirectPending_ = true;
    }
}

/**
 * Dispatch: the admissible run length (width, buffer occupancy, ROB
 * space) is computed once and the per-entry loop runs without those
 * checks.
 */
void
Processor::dispatchStep(SimStats &)
{
    prefetchData();
    const std::uint64_t n = std::min<std::uint64_t>(
        {cfg_.width, fetchPos_ - dispatchPos_,
         static_cast<std::uint64_t>(cfg_.robSize) - rob_.size()});
    for (std::uint64_t i = 0; i < n; ++i)
        dispatchOne(dispatchPos_ + i);
    dispatchPos_ += n;
}

void
Processor::redirectStep()
{
    if (!redirectPending_ || !redirectTimeKnown_ || now_ < redirectAt_)
        return;

    engine_->redirect(faulting_);
    diverged_ = false;
    redirectPending_ = false;
    redirectTimeKnown_ = false;
    // The faulting branch remains the newest correct-path fetch.
}

void
Processor::ensureFetchWindow()
{
    if (fetchPos_ + cfg_.width > path_.last) {
        window_->refill(totalCommitted_, dataPos_);
        path_ = window_->view();
    }
}

void
Processor::throwPathExhausted() const
{
    throw std::runtime_error(
        "committed path exhausted at instruction " +
        std::to_string(path_.last) +
        ": the shared arena ends there; decode it with more margin");
}

void
Processor::fetchStep(SimStats &st)
{
    if (diverged_ && redirectTimeKnown_) {
        // Wrong path with a scheduled redirect: the front end keeps
        // running (i-cache pollution / prefetch), but its output is
        // discarded without entering the pipeline.
        bundle_.clear();
        engine_->fetchCycle(now_, cfg_.width, bundle_);
        if (measuring_) {
            if (!bundle_.empty())
                ++st.fetchCyclesAttempted; // delivered, 0 useful
            st.fetchedWrong += bundle_.size();
        }
        return;
    }

    const std::uint64_t held = fetchPos_ - dispatchPos_;
    std::size_t space =
        cfg_.fetchBufferInsts > held ? cfg_.fetchBufferInsts - held : 0;
    if (space == 0)
        return;

    unsigned ask = static_cast<unsigned>(
        std::min<std::size_t>(space, cfg_.width));
    const bool full_opportunity = (ask == cfg_.width);
    FetchBundle &out = bundle_;
    out.clear();
    engine_->fetchCycle(now_, ask, out);
    // The paper's fetch IPC counts instructions per *delivering*
    // full-width access; pure stall cycles (i-cache misses, FTQ
    // refill) are not fetch accesses.
    if (measuring_ && full_opportunity && !out.empty())
        ++st.fetchCyclesAttempted;

    verifyBundle(st, full_opportunity);

    // Watchdog: an engine that followed a garbage target (bad RAS
    // value, stale indirect) can run out of the image and go silent
    // without ever emitting a divergent instruction. Any legitimate
    // stall (full L2+memory miss) is far shorter than this bound, so
    // prolonged silence means the last fetched branch went astray.
    if (!diverged_ && out.empty()) {
        if (++silentFetchCycles_ > kSilenceBound)
            declareDivergence(st);
    } else {
        silentFetchCycles_ = 0;
    }
}

void
Processor::checkpointBranch(std::uint64_t pos, std::uint64_t token)
{
    const CommittedBranch cb = committedBranch(pos, metaAt(pos));
    prev_.pos = pos;
    prev_.resolved = {cb.pc, cb.type, cb.taken, cb.target, token};
}

/**
 * Bundle-at-once oracle verify, run by run.
 *
 * Fetched instructions are on the correct path up to the first whose
 * pc differs from the committed path's next pc; that one, and every
 * instruction after it until the redirect, is wrong path. A fetched
 * run is sequential, and so is the committed path between taken
 * branches, so each run is compared with the committed offset span
 * from where the previous run's match ended: the matched lengths sum
 * to the number of correct-path instructions, and the first run that
 * stops short holds the divergence point. The matched prefix is then
 * ingested by advancing fetchPos_, with branch bookkeeping driven by a
 * movemask over the packed meta bytes rather than a branchy
 * per-instruction test, and bulk statistics updates.
 */
void
Processor::verifyBundle(SimStats &st, bool full_opportunity)
{
    const unsigned n = bundle_.size();
    if (n == 0)
        return;

    unsigned m = 0; // correct-path prefix length
    if (!diverged_) {
        ensureFetchWindow();
        const std::uint64_t pos = fetchPos_;
        // Entries [pos, last] are readable. Entry `last` holds only
        // the pc after the final instruction the window can ingest,
        // so a fetch that matches it has run past the end of the
        // committed path; it is part of the compare so that this is
        // diagnosed below.
        const unsigned lim = static_cast<unsigned>(
            std::min<std::uint64_t>(n, path_.last + 1 - pos));

        // Each run against the committed offset span, widened to the
        // full address, so a wrong-path run that left the image
        // simply mismatches (no u32 aliasing to guard against).
        const Addr base = path_.base;
        const std::uint32_t *offs = path_.pcOff + (pos - path_.first);
        for (const FetchRun &run : bundle_) {
            const unsigned stop = std::min(lim, m + run.len);
            Addr pc = run.start;
            const unsigned from = m;
            while (m < stop && pc == base + Addr(offs[m])) {
                ++m;
                pc += kInstBytes;
            }
            if (m - from < run.len)
                break;
        }
        if (pos + m > path_.last)
            throwPathExhausted();

        if (m > 0) {
            fetchPos_ += m;

            // Branch positions of the whole match in one meta scan.
            // The divergence checkpoint is the newest correct-path
            // branch fetched, so only the match's last branch is
            // checkpointed, with the token of the run that holds it.
            const std::uint32_t bmask = simd::maskTestU8(
                path_.meta + (pos - path_.first), m, kMetaBranchBits);
            if (bmask) {
                const unsigned j = simd::topBit(bmask);
                const FetchRun *run = bundle_.begin();
                for (unsigned end = run->len; end <= j; end += run->len)
                    ++run;
                checkpointBranch(pos + j, run->token);
            }
            lastWasBranch_ = ((bmask >> (m - 1)) & 1u) != 0;

            if (measuring_) {
                st.fetchedCorrect += m;
                if (full_opportunity)
                    st.fetchOppInsts += m;
            }
        }
    }

    if (m < n) {
        if (!diverged_)
            declareDivergence(st);
        if (measuring_)
            st.fetchedWrong += n - m;
    }
}

void
Processor::declareDivergence(SimStats &st)
{
    if (!lastWasBranch_) {
        throw std::runtime_error(
            "fetch engine protocol violation: divergence without a "
            "preceding branch");
    }
    diverged_ = true;
    faulting_ = prev_.resolved;
    faultingPos_ = prev_.pos;
    silentFetchCycles_ = 0;

    if (measuring_) {
        ++st.mispredicts;
        if (faulting_.type == BranchType::CondDirect)
            ++st.condMispredicts;
        st.mispredictsByType[static_cast<unsigned>(faulting_.type)]++;
    }

    if (faultingPos_ >= totalCommitted_ && faultingPos_ < dispatchPos_) {
        // In flight: the ROB holds consecutive positions, so the
        // faulting branch sits at a fixed offset from the head, and
        // its entry carries the dispatch cycle.
        const RobEntry &e = rob_.at(
            static_cast<std::size_t>(faultingPos_ - totalCommitted_));
        redirectAt_ = e.dispatchedAt + cfg_.branchResolveLat;
        if (redirectAt_ <= now_)
            redirectAt_ = now_ + 1;
        redirectTimeKnown_ = true;
        redirectPending_ = true;
    } else if (faultingPos_ < totalCommitted_) {
        // Already committed and resolved long ago (fetch was stalled
        // meanwhile): deliver the latched resolution next cycle.
        redirectAt_ = now_ + 1;
        redirectTimeKnown_ = true;
        redirectPending_ = true;
    }
    // else: still in the fetch buffer; the redirect is scheduled
    // when the branch dispatches.
}

SimStats
Processor::run(InstCount insts, InstCount warmup_insts)
{
    SimStats st;

    auto loop = [&](InstCount until_total) {
        // Exact-boundary stop: cap the final commit cycle at the
        // remaining count. The capped cycle still executes in full;
        // trimmed instructions simply commit in the next phase (or
        // not at all, for the final one).
        stopAt_ = cfg_.exactInstStop ? until_total : ~InstCount(0);
        Cycle last_progress = now_;
        InstCount last = totalCommitted_;
        while (totalCommitted_ < until_total) {
            commitStep(st);
            dispatchStep(st);
            redirectStep();
            fetchStep(st);
            ++now_;
            if (measuring_)
                ++st.cycles;

            if (totalCommitted_ != last) {
                last = totalCommitted_;
                last_progress = now_;
            }
            if (now_ - last_progress > cfg_.deadlockCycles) {
                throw std::runtime_error(
                    "processor deadlock: no commit progress");
            }
        }
    };

    if (warmup_insts > 0) {
        measuring_ = false;
        loop(totalCommitted_ + warmup_insts);
        mem_->resetStats();
    }

    measuring_ = true;
    loop(totalCommitted_ + insts);

    st.engine = engine_->stats();
    st.l1iMissRate = mem_->l1i().missRate();
    st.l1dMissRate = mem_->l1d().missRate();
    return st;
}

} // namespace sfetch
