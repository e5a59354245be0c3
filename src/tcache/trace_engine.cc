#include "tcache/trace_engine.hh"

#include <algorithm>

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
            emitSegs_.clear();
            emitSeg_ = 0;
            emitToken_ = token;

            unsigned cond_idx = 0;
            Addr next = any->next;
            for (const TraceSegment &seg : any->segments) {
                const std::uint8_t *meta = image_->meta() +
                    (seg.start - image_->baseAddr()) / kInstBytes;
                std::uint32_t len = seg.lenInsts;
                bool cut = false;
                for (std::uint32_t i = 0; i < len; ++i) {
                    const Addr pc = seg.start + instsToBytes(i);
                    const BranchType b = metaBranchType(meta[i]);
                    if (b == BranchType::Call)
                        ras_.push(pc + kInstBytes);
                    if (b != BranchType::CondDirect)
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
                        len = i + 1;
                        cut = true;
                    }
                }
                emitSegs_.push_back(TraceSegment{seg.start, len});
                if (cut)
                    break;
            }
            if (next == kNoAddr || !image_->contains(next))
                next = latchedEnd();
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

        walk_.nextAfter = pred.endType == BranchType::Return
            ? predictReturn(ras_, *image_, pred.next)
            : pred.next;
        return TraceTry::WalkStart;
    }
    ++traceHits_;

    // Latch the trace for emission: its segments are the runs it
    // delivers.
    emitSegs_ = trace->segments;
    emitSeg_ = 0;
    emitToken_ = token;

    // Successor: predictor-provided, with RAS override for returns.
    // The return pops before the in-trace calls push below, the
    // modelled order the golden stats pin.
    Addr next = pred.next;
    if (trace->endType == BranchType::Return)
        next = predictReturn(ras_, *image_, next);
    if (next == kNoAddr || !image_->contains(next))
        next = latchedEnd();

    // One pass over the packed meta bytes: the speculative direction
    // history of the embedded conditionals, and the RAS pushes of
    // the calls inside the trace.
    unsigned cond_idx = 0;
    for (const TraceSegment &seg : trace->segments) {
        const std::uint8_t *meta = image_->meta() +
            (seg.start - image_->baseAddr()) / kInstBytes;
        for (std::uint32_t i = 0; i < seg.lenInsts; ++i) {
            const BranchType b = metaBranchType(meta[i]);
            if (b == BranchType::CondDirect) {
                specHist_.push((trace->dirBits >> cond_idx) & 1);
                ++cond_idx;
            } else if (b == BranchType::Call) {
                ras_.push(seg.start + instsToBytes(i + 1));
            }
        }
    }

    ntp_.specPush(trace->id());
    fetchAddr_ = next;
    return TraceTry::Hit;
}

Addr
TraceFetchEngine::latchedEnd() const
{
    const TraceSegment &last = emitSegs_.back();
    return last.start + instsToBytes(last.lenInsts);
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

    // One run per cycle: up to the first taken branch, bounded by
    // the line, the width, the trace's remaining length and the
    // image end.
    const Addr start = walk_.pc;
    const unsigned n = std::min(
        {avail, max_insts, unsigned(walk_.instsLeft),
         static_cast<unsigned>((image_->endAddr() - start) /
                               kInstBytes)});
    const std::uint8_t *meta = image_->meta() +
        (start - image_->baseAddr()) / kInstBytes;
    unsigned len = n;
    Addr next = start + instsToBytes(n);
    for (std::uint32_t bmask = simd::maskTestU8(meta, n, kMetaBranchBits);
         bmask; bmask &= bmask - 1) {
        const unsigned j = simd::bottomBit(bmask);
        const Addr bpc = start + instsToBytes(j);
        const Addr seq = bpc + kInstBytes;
        bool taken = false;
        Addr target = seq;

        switch (metaBranchType(meta[j])) {
          case BranchType::CondDirect:
            if (walk_.condsLeft > 0) {
                taken = walk_.dirBits & 1;
                walk_.dirBits >>= 1;
                --walk_.condsLeft;
            }
            specHist_.push(taken);
            if (taken)
                target = image_->takenTarget(bpc);
            break;
          case BranchType::Jump:
            taken = true;
            target = image_->takenTarget(bpc);
            break;
          case BranchType::Call:
            taken = true;
            target = image_->takenTarget(bpc);
            ras_.push(seq);
            break;
          case BranchType::Return:
            taken = true;
            target = predictReturn(ras_, *image_, seq);
            break;
          case BranchType::IndirectJump: {
            BtbEntry e = btb_.lookup(bpc);
            taken = e.hit && image_->contains(e.target);
            target = taken ? e.target : seq;
            break;
          }
          default:
            break;
        }
        if (taken) {
            // One taken branch per cycle through the i-cache.
            len = j + 1;
            next = target;
            break;
        }
    }
    out.push(start, len, walk_.token);
    instsFromIcache_ += len;
    walk_.instsLeft -= len;
    walk_.pc = next;

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
    // The latched segments are the runs: each cycle emits up to
    // max_insts from their front, cutting the segments in place.
    unsigned room = max_insts;
    while (room > 0 && emitSeg_ < emitSegs_.size()) {
        TraceSegment &seg = emitSegs_[emitSeg_];
        const std::uint32_t n = std::min<std::uint32_t>(room, seg.lenInsts);
        out.push(seg.start, n, emitToken_);
        seg.start += instsToBytes(n);
        seg.lenInsts -= n;
        room -= n;
        if (seg.lenInsts == 0)
            ++emitSeg_;
    }
    instsFromTrace_ += max_insts - room;
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

    const Addr start = fetchAddr_;
    const unsigned n = std::min(
        {avail, max_insts,
         static_cast<unsigned>((image_->endAddr() - start) /
                               kInstBytes)});
    std::uint64_t token = checkpoints_.put(
        EngineCheckpoint{ras_.save(), specHist_.value()});

    // One fetch block per cycle: up to the first predicted-taken
    // branch, found by a meta scan.
    const std::uint8_t *meta = image_->meta() +
        (start - image_->baseAddr()) / kInstBytes;
    unsigned len = n;
    Addr next = start + instsToBytes(n);
    for (std::uint32_t bmask = simd::maskTestU8(meta, n, kMetaBranchBits);
         bmask; bmask &= bmask - 1) {
        const unsigned j = simd::bottomBit(bmask);
        const Addr bpc = start + instsToBytes(j);
        const Addr seq = bpc + kInstBytes;
        bool taken = false;
        Addr target = seq;

        switch (metaBranchType(meta[j])) {
          case BranchType::CondDirect: {
            bool dir = gshare_.predict(bpc, specHist_.value());
            specHist_.push(dir);
            if (dir) {
                taken = true;
                target = image_->takenTarget(bpc);
            }
            break;
          }
          case BranchType::Jump:
            taken = true;
            target = image_->takenTarget(bpc);
            break;
          case BranchType::Call:
            taken = true;
            target = image_->takenTarget(bpc);
            ras_.push(seq);
            break;
          case BranchType::Return:
            taken = true;
            target = predictReturn(ras_, *image_, seq);
            break;
          case BranchType::IndirectJump: {
            BtbEntry e = btb_.lookup(bpc);
            if (e.hit && image_->contains(e.target)) {
                taken = true;
                target = e.target;
            }
            break;
          }
          default:
            break;
        }
        if (taken) {
            len = j + 1;
            next = target;
            break;
        }
    }
    out.push(start, len, token);
    instsFromIcache_ += len;
    fetchAddr_ = next;
}

void
TraceFetchEngine::fetchCycle(Cycle now, unsigned max_insts,
                             FetchBundle &out)
{
    // Drain a previously latched wide trace first; predictor and
    // trace cache stall while it feeds the pipeline (footnote 2).
    if (emitSeg_ < emitSegs_.size()) {
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

    emitSegs_.clear();
    emitSeg_ = 0;
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
