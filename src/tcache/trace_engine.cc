#include "tcache/trace_engine.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/engine_registry.hh"
#include "util/simd.hh"

namespace sfetch
{

TraceFetchEngine::TraceFetchEngine(const TraceEngineConfig &cfg,
                                   const CodeImage &image,
                                   MemoryHierarchy *mem)
    : cfg_(cfg), image_(&image), reader_(mem, cfg.lineBytes),
      ntp_(cfg.ntp), tcache_(cfg.tcache), btb_(cfg.backupBtb),
      gshare_(cfg.gshareEntries, cfg.gshareHistoryBits),
      ras_(cfg.rasEntries), fetchAddr_(image.entryAddr())
{
    // Runtime check, not an assert: the trace length limit comes
    // from user configuration, and a trace longer than the inline
    // emit queue would be silently truncated when latched.
    if (cfg_.fill.maxInsts > kMaxEmitInsts) {
        throw std::invalid_argument(
            "FillUnitConfig.maxInsts " +
            std::to_string(cfg_.fill.maxInsts) +
            " exceeds TraceFetchEngine::kMaxEmitInsts " +
            std::to_string(kMaxEmitInsts));
    }
    fill_ = std::make_unique<TraceFillUnit>(
        image.entryAddr(), cfg_.fill,
        [this](const TraceDescriptor &t, bool mispredicted) {
            ntp_.commitTrace(t, mispredicted);
            tcache_.insert(t);
        });
}

TraceFetchEngine::TraceTry
TraceFetchEngine::tryTracePath()
{
    if (!image_->contains(fetchAddr_))
        return TraceTry::Miss;

    TracePrediction pred = ntp_.predict(fetchAddr_);
    if (!pred.hit)
        return TraceTry::Miss;

    std::uint64_t token = checkpoints_.put(
        EngineCheckpoint{ras_.save(), specHist_.value()});
    std::uint64_t trace_id =
        TraceDescriptor::idOf(fetchAddr_, pred.dirBits, pred.numCond);

    const TraceDescriptor *trace =
        tcache_.lookup(fetchAddr_, pred.dirBits, pred.numCond);

    if (!trace && cfg_.partialMatching) {
        // Partial matching: serve the prefix of any same-start trace
        // that agrees with the predicted directions up to the first
        // divergent conditional.
        const TraceDescriptor *any =
            tcache_.lookupAnyDirections(fetchAddr_);
        if (any) {
            ++partialHits_;
            emitQueue_.clear();
            emitPos_ = 0;
            emitToken_ = token;
            emitBranchMask_ = 0;

            unsigned cond_idx = 0;
            Addr next = kNoAddr;
            bool cut = false;
            for (const TraceSegment &seg : any->segments) {
                for (std::uint32_t i = 0;
                     i < seg.lenInsts && !cut; ++i) {
                    Addr pc = seg.start + instsToBytes(i);
                    emitQueue_.push_back(pc);
                    const StaticInst si = image_->inst(pc);
                    if (si.isBranch())
                        emitBranchMask_ |= std::uint64_t(1)
                            << (emitQueue_.size() - 1);
                    if (si.btype == BranchType::Call)
                        ras_.push(pc + kInstBytes);
                    if (si.btype != BranchType::CondDirect)
                        continue;
                    bool stored = (any->dirBits >> cond_idx) & 1;
                    bool want = (pred.dirBits >> cond_idx) & 1;
                    specHist_.push(want);
                    ++cond_idx;
                    if (stored != want) {
                        // Cut after the divergent conditional and
                        // continue on the predicted direction.
                        next = want ? image_->takenTarget(pc)
                                    : pc + kInstBytes;
                        cut = true;
                    }
                }
                if (cut)
                    break;
            }
            if (!cut)
                next = any->next;
            if (next == kNoAddr || !image_->contains(next)) {
                next = emitQueue_.empty()
                    ? fetchAddr_
                    : emitQueue_.back() + kInstBytes;
            }
            ntp_.specPush(trace_id);
            fetchAddr_ = next;
            return TraceTry::Hit;
        }
    }

    if (!trace) {
        // Trace cache miss (typically a sequential trace excluded by
        // selective storage): fetch the predicted trace through the
        // i-cache, keeping trace-level sequencing intact.
        ++traceMisses_;
        walk_.active = true;
        walk_.pc = fetchAddr_;
        walk_.dirBits = pred.dirBits;
        walk_.condsLeft = pred.numCond;
        walk_.instsLeft = pred.totalInsts
            ? pred.totalInsts : cfg_.fill.maxInsts;
        walk_.traceId = trace_id;
        walk_.token = token;

        Addr next = pred.next;
        if (pred.endType == BranchType::Return) {
            Addr t = ras_.pop();
            if (t != kNoAddr && image_->contains(t))
                next = t;
        }
        walk_.nextAfter = next;
        return TraceTry::WalkStart;
    }
    ++traceHits_;

    // Latch the trace for emission: a single pass over the image's
    // packed meta bytes builds the queue, the emit-token mask, the
    // speculative direction history, and the in-trace call list
    // (instead of one queue-building walk plus two StaticInst
    // re-walks, with a further per-inst lookup at emission).
    emitQueue_.clear();
    emitPos_ = 0;
    emitToken_ = token;
    std::uint64_t bmask = 0;
    std::uint64_t call_mask = 0;
    unsigned cond_idx = 0;
    unsigned qi = 0;
    for (const TraceSegment &seg : trace->segments) {
        const std::uint8_t *meta = image_->meta() +
            (seg.start - image_->baseAddr()) / kInstBytes;
        for (std::uint32_t i = 0; i < seg.lenInsts; ++i, ++qi) {
            emitQueue_.push_back(seg.start + instsToBytes(i));
            const BranchType b = metaBranchType(meta[i]);
            if (b == BranchType::None)
                continue;
            bmask |= std::uint64_t(1) << qi;
            if (b == BranchType::CondDirect) {
                // Speculative direction history for the embedded
                // conditionals.
                specHist_.push((trace->dirBits >> cond_idx) & 1);
                ++cond_idx;
            } else if (b == BranchType::Call) {
                call_mask |= std::uint64_t(1) << qi;
            }
        }
    }
    emitBranchMask_ = bmask;

    // Successor: predictor-provided, with RAS override for returns.
    Addr next = pred.next;
    Addr seq_after = emitQueue_.empty()
        ? fetchAddr_ : emitQueue_.back() + kInstBytes;
    if (trace->endType == BranchType::Return) {
        Addr t = ras_.pop();
        if (t != kNoAddr && image_->contains(t))
            next = t;
    }
    if (next == kNoAddr || !image_->contains(next))
        next = seq_after;

    // Speculative RAS maintenance for calls inside the trace — after
    // the end-of-trace return pop, matching the modelled order the
    // golden stats pin.
    while (call_mask) {
        const unsigned j = simd::bottomBit(call_mask);
        ras_.push(emitQueue_[j] + kInstBytes);
        call_mask &= call_mask - 1;
    }

    ntp_.specPush(trace->id());
    fetchAddr_ = next;
    return TraceTry::Hit;
}

void
TraceFetchEngine::walkStep(Cycle now, unsigned max_insts,
                           FetchBundle &out)
{
    if (!image_->contains(walk_.pc)) {
        // Wrong path ran off the image; abandon trace sequencing.
        walk_.active = false;
        fetchAddr_ = walk_.pc;
        return;
    }

    unsigned avail = reader_.available(now, walk_.pc);
    if (avail == 0)
        return;

    unsigned n = std::min(std::min(avail, max_insts),
                          walk_.instsLeft);
    for (unsigned i = 0; i < n; ++i) {
        if (!image_->contains(walk_.pc))
            break;
        const StaticInst si = image_->inst(walk_.pc);
        FetchedInst fi;
        fi.pc = walk_.pc;
        if (si.isBranch())
            fi.token = walk_.token;
        out.push_back(fi);
        ++instsFromIcache_;
        --walk_.instsLeft;

        Addr seq = walk_.pc + kInstBytes;
        bool taken = false;
        Addr target = seq;

        switch (si.btype) {
          case BranchType::CondDirect:
            if (walk_.condsLeft > 0) {
                taken = walk_.dirBits & 1;
                walk_.dirBits >>= 1;
                --walk_.condsLeft;
            }
            specHist_.push(taken);
            if (taken)
                target = image_->takenTarget(walk_.pc);
            break;
          case BranchType::Jump:
            taken = true;
            target = image_->takenTarget(walk_.pc);
            break;
          case BranchType::Call:
            taken = true;
            target = image_->takenTarget(walk_.pc);
            ras_.push(seq);
            break;
          case BranchType::Return: {
            Addr t = ras_.pop();
            taken = true;
            target = (t != kNoAddr && image_->contains(t)) ? t : seq;
            break;
          }
          case BranchType::IndirectJump: {
            BtbEntry e = btb_.lookup(walk_.pc);
            taken = e.hit && image_->contains(e.target);
            target = taken ? e.target : seq;
            break;
          }
          default:
            break;
        }

        walk_.pc = target;
        if (walk_.instsLeft == 0)
            break;
        if (taken)
            break; // one taken branch per cycle through the i-cache
    }

    if (walk_.instsLeft == 0) {
        // Predicted trace fully fetched: resume trace sequencing.
        walk_.active = false;
        ntp_.specPush(walk_.traceId);
        Addr next = walk_.nextAfter;
        if (next == kNoAddr || !image_->contains(next))
            next = walk_.pc;
        fetchAddr_ = next;
    }
}

void
TraceFetchEngine::emitTrace(unsigned max_insts,
                            FetchBundle &out)
{
    // Branch positions were latched into emitBranchMask_ alongside
    // the queue, so emission is a straight copy: pc from the queue,
    // token from the mask, no image lookups.
    const unsigned left =
        static_cast<unsigned>(emitQueue_.size()) - emitPos_;
    const unsigned n = std::min(max_insts, left);
    const Addr *pcs = emitQueue_.data() + emitPos_;
    const std::uint64_t bm = emitBranchMask_ >> emitPos_;
    for (unsigned i = 0; i < n; ++i) {
        FetchedInst fi;
        fi.pc = pcs[i];
        if ((bm >> i) & 1u)
            fi.token = emitToken_;
        out.push_back(fi);
    }
    emitPos_ += n;
    instsFromTrace_ += n;
    if (emitPos_ >= emitQueue_.size()) {
        emitQueue_.clear();
        emitPos_ = 0;
    }
}

void
TraceFetchEngine::secondaryFetch(Cycle now, unsigned max_insts,
                                 FetchBundle &out)
{
    ++secondaryCycles_;
    if (!image_->contains(fetchAddr_))
        return;

    unsigned avail = reader_.available(now, fetchAddr_);
    if (avail == 0)
        return;

    unsigned n = std::min(avail, max_insts);
    std::uint64_t token = checkpoints_.put(
        EngineCheckpoint{ras_.save(), specHist_.value()});

    for (unsigned i = 0; i < n; ++i) {
        const StaticInst si = image_->inst(fetchAddr_);
        FetchedInst fi;
        fi.pc = fetchAddr_;
        if (si.isBranch())
            fi.token = token;
        out.push_back(fi);
        ++instsFromIcache_;

        if (!si.isBranch()) {
            fetchAddr_ += kInstBytes;
            continue;
        }

        Addr seq = fetchAddr_ + kInstBytes;
        bool taken = false;
        Addr target = seq;

        switch (si.btype) {
          case BranchType::CondDirect: {
            bool dir = gshare_.predict(fetchAddr_, specHist_.value());
            specHist_.push(dir);
            if (dir) {
                taken = true;
                target = image_->takenTarget(fetchAddr_);
            }
            break;
          }
          case BranchType::Jump:
            taken = true;
            target = image_->takenTarget(fetchAddr_);
            break;
          case BranchType::Call:
            taken = true;
            target = image_->takenTarget(fetchAddr_);
            ras_.push(seq);
            break;
          case BranchType::Return: {
            Addr t = ras_.pop();
            taken = true;
            target = (t != kNoAddr && image_->contains(t)) ? t : seq;
            break;
          }
          case BranchType::IndirectJump: {
            BtbEntry e = btb_.lookup(fetchAddr_);
            if (e.hit && image_->contains(e.target)) {
                taken = true;
                target = e.target;
            } else {
                target = seq;
            }
            break;
          }
          default:
            break;
        }

        fetchAddr_ = target;
        if (taken)
            break; // one fetch block per cycle on the secondary path
    }
}

void
TraceFetchEngine::fetchCycle(Cycle now, unsigned max_insts,
                             FetchBundle &out)
{
    // Drain a previously latched wide trace first; predictor and
    // trace cache stall while it feeds the pipeline (footnote 2).
    if (emitPos_ < emitQueue_.size()) {
        emitTrace(max_insts, out);
        return;
    }
    if (walk_.active) {
        walkStep(now, max_insts, out);
        return;
    }

    switch (tryTracePath()) {
      case TraceTry::Hit:
        emitTrace(max_insts, out);
        return;
      case TraceTry::WalkStart:
        walkStep(now, max_insts, out);
        return;
      case TraceTry::Miss:
        break;
    }

    secondaryFetch(now, max_insts, out);
}

void
TraceFetchEngine::redirect(const ResolvedBranch &rb)
{
    ntp_.recoverHistory();
    if (const auto *cp = checkpoints_.get(rb.token)) {
        ras_.restore(cp->ras);
        specHist_.set(cp->hist);
    } else {
        specHist_.copyFrom(commitHist_);
    }
    if (rb.type == BranchType::CondDirect)
        specHist_.push(rb.taken);

    if (rb.type == BranchType::Call)
        ras_.push(rb.pc + kInstBytes);
    else if (rb.type == BranchType::Return)
        ras_.pop();

    emitQueue_.clear();
    emitPos_ = 0;
    walk_.active = false;
    fetchAddr_ = rb.target;
    fill_->onMispredict();
}

void
TraceFetchEngine::trainCommit(const CommittedBranch &cb)
{
    fill_->onBranch(cb);
    if (cb.type == BranchType::CondDirect) {
        gshare_.update(cb.pc, commitHist_.value(), cb.taken);
        commitHist_.push(cb.taken);
    } else if (cb.type == BranchType::IndirectJump) {
        btb_.update(cb.pc, cb.target, cb.type);
    }
}

void
TraceFetchEngine::reset(Addr start)
{
    fetchAddr_ = start;
    emitQueue_.clear();
    emitPos_ = 0;
    emitToken_ = 0;
    walk_ = PredWalk{};
    specHist_.clear();
    commitHist_.clear();
    fill_->reset(start);
    reader_.reset();
    // Engine-owned counters restart with the run, matching the
    // reader and fill unit: stats() after reset(start) describes
    // only the current run. Learned predictor state (trace cache,
    // NTP, gshare, BTB, RAS) persists, exactly like the other
    // engines' tables.
    traceHits_ = 0;
    traceMisses_ = 0;
    partialHits_ = 0;
    secondaryCycles_ = 0;
    instsFromTrace_ = 0;
    instsFromIcache_ = 0;
}

StatSet
TraceFetchEngine::stats() const
{
    StatSet s = ntp_.stats();
    s.set("tc.trace_hits", double(traceHits_));
    s.set("tc.trace_misses", double(traceMisses_));
    s.set("tc.partial_hits", double(partialHits_));
    s.set("tc.lookups", double(tcache_.lookups()));
    s.set("tc.inserts", double(tcache_.inserts()));
    s.set("tc.rejected_sequential",
          double(tcache_.rejectedSequential()));
    s.set("tc.secondary_cycles", double(secondaryCycles_));
    s.set("tc.insts_from_trace", double(instsFromTrace_));
    s.set("tc.insts_from_icache", double(instsFromIcache_));
    s.set("tc.traces_built", double(fill_->tracesBuilt()));
    s.set("tc.avg_trace_len", fill_->lengthHistogram().mean());
    s.set("tc.icache_misses", double(reader_.misses()));
    return s;
}

namespace detail
{

void
registerTraceEngine(EngineRegistry &reg)
{
    EngineDescriptor d;
    d.token = "trace";
    d.displayName = "Tcache+Tpred";
    d.summary =
        "trace cache with next trace prediction plus a full "
        "conventional secondary fetch path (BTB + gshare)";
    d.aliases = {"tcache"};
    d.paperDefault = true;
    d.params
        .intParam("ras", 8, "return address stack entries", 1)
        .intParam("gshare_entries", 8192,
                  "secondary-path gshare table entries", 1)
        .intParam("gshare_hist", 12,
                  "secondary-path gshare history bits", 1, 63)
        .boolParam("partial_match", false,
                   "serve matching prefixes of same-start resident "
                   "traces (footnote 3: hurts optimized layouts)");
    d.validate = [](const ParamSet &p) {
        checkTableGeometry(p, "gshare_entries");
    };
    d.factory = [](const ParamSet &p, const CodeImage &image,
                   MemoryHierarchy *mem) {
        TraceEngineConfig c;
        c.lineBytes = static_cast<unsigned>(p.getInt("line"));
        c.rasEntries = static_cast<std::size_t>(p.getInt("ras"));
        c.gshareEntries =
            static_cast<std::size_t>(p.getInt("gshare_entries"));
        c.gshareHistoryBits =
            static_cast<unsigned>(p.getInt("gshare_hist"));
        c.partialMatching = p.getBool("partial_match");
        return std::make_unique<TraceFetchEngine>(c, image, mem);
    };
    reg.add(std::move(d));
}

} // namespace detail

} // namespace sfetch
