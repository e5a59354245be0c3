#include "tcache/trace_engine.hh"

#include <algorithm>

#include "sim/engine_registry.hh"

namespace sfetch
{

TraceFetchEngine::TraceFetchEngine(const TraceEngineConfig &cfg,
                                   const CodeImage &image,
                                   MemoryHierarchy *mem)
    : cfg_(cfg), image_(&image), reader_(mem, image, cfg.lineBytes),
      ntp_(cfg.ntp), tcache_(cfg.tcache), btb_(cfg.backupBtb),
      gshare_(cfg.gshareEntries, cfg.gshareHistoryBits),
      rec_(cfg.rasEntries), fetchAddr_(image.entryAddr())
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

    std::uint64_t token = rec_.checkpoint();
    std::uint64_t trace_id =
        TraceDescriptor::idOf(fetchAddr_, pred.dirBits, pred.numCond);

    const TraceDescriptor *trace =
        tcache_.lookup(fetchAddr_, pred.dirBits, pred.numCond);
    Addr next;
    if (trace) {
        ++traceHits_;
        // Successor: predictor-provided, with RAS override for
        // returns. The return pops before the in-trace calls push in
        // latchTrace(), the modelled order the golden stats pin.
        next = pred.next;
        if (trace->endType == BranchType::Return)
            next = predictReturn(rec_.ras, *image_, next);
        latchTrace(*trace, trace->dirBits, token);
        trace_id = trace->id();
    } else if (cfg_.partialMatching &&
               (trace = tcache_.lookupAnyDirections(fetchAddr_))) {
        // Partial matching: serve the prefix of any same-start trace
        // that agrees with the predicted directions up to the first
        // divergent conditional, then continue on the predicted
        // direction.
        ++partialHits_;
        next = latchTrace(*trace, pred.dirBits, token);
        if (next == kNoAddr)
            next = trace->next;
    } else {
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
            ? predictReturn(rec_.ras, *image_, pred.next)
            : pred.next;
        return TraceTry::WalkStart;
    }

    if (next == kNoAddr || !image_->contains(next))
        next = latchedEnd();
    ntp_.specPush(trace_id);
    fetchAddr_ = next;
    return TraceTry::Hit;
}

Addr
TraceFetchEngine::latchedEnd() const
{
    const TraceSegment &last = emitSegs_.back();
    return last.start + instsToBytes(last.lenInsts);
}

Addr
TraceFetchEngine::latchTrace(const TraceDescriptor &t,
                             std::uint32_t dirs, std::uint64_t token)
{
    emitSegs_.clear();
    emitSeg_ = 0;
    emitToken_ = token;

    // One pass over the packed meta bytes: the speculative direction
    // history of the embedded conditionals, and the RAS pushes of
    // the calls inside the trace.
    unsigned cond_idx = 0;
    for (const TraceSegment &seg : t.segments) {
        const std::uint8_t *meta = image_->metaAt(seg.start);
        for (std::uint32_t i = 0; i < seg.lenInsts; ++i) {
            const Addr seq = seg.start + instsToBytes(i + 1);
            const BranchType b = metaBranchType(meta[i]);
            if (b == BranchType::Call)
                rec_.ras.push(seq);
            if (b != BranchType::CondDirect)
                continue;
            const bool want = (dirs >> cond_idx) & 1;
            rec_.specHist.push(want);
            if (want != ((t.dirBits >> cond_idx++) & 1)) {
                emitSegs_.push_back(TraceSegment{seg.start, i + 1});
                return want ? image_->takenTarget(seq - kInstBytes)
                            : seq;
            }
        }
        emitSegs_.push_back(seg);
    }
    return kNoAddr;
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

    // One run per cycle, bounded by the trace's remaining length,
    // with the conditionals following the predicted directions.
    const ICacheRun run = reader_.read(
        now, walk_.pc, std::min(max_insts, walk_.instsLeft));
    if (run.len == 0)
        return;
    const BlockEnd end =
        scanBlock(run, *image_, rec_, btb_, [this](Addr) {
            if (walk_.condsLeft == 0)
                return false;
            const bool taken = walk_.dirBits & 1;
            walk_.dirBits >>= 1;
            --walk_.condsLeft;
            return taken;
        });
    out.push(run.start, end.len, walk_.token);
    instsFromIcache_ += end.len;
    walk_.instsLeft -= end.len;
    walk_.pc = end.next;

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
    const ICacheRun run = reader_.read(now, fetchAddr_, max_insts);
    if (run.len == 0)
        return;

    // One fetch block per cycle, with gshare directions; checkpointed
    // only once the read succeeds.
    const std::uint64_t token = rec_.checkpoint();
    const BlockEnd end =
        scanBlock(run, *image_, rec_, btb_, [this](Addr bpc) {
            return gshare_.predict(bpc, rec_.specHist.value());
        });
    out.push(run.start, end.len, token);
    instsFromIcache_ += end.len;
    fetchAddr_ = end.next;
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
    rec_.repair(rb, true);

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
        gshare_.update(cb.pc, rec_.commitHist.value(), cb.taken);
        rec_.commitHist.push(cb.taken);
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
