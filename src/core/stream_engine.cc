#include "core/stream_engine.hh"

#include "sim/engine_registry.hh"

namespace sfetch
{

StreamFetchEngine::StreamFetchEngine(const StreamConfig &cfg,
                                     const CodeImage &image,
                                     MemoryHierarchy *mem)
    : cfg_(cfg), image_(&image), reader_(mem, image, cfg.lineBytes),
      nsp_(cfg.nsp), rec_(cfg.rasEntries), ftq_(cfg.ftqEntries),
      fetchAddr_(image.entryAddr())
{
    builder_ = std::make_unique<StreamBuilder>(
        image.entryAddr(), cfg_.maxStreamInsts,
        [this](const StreamDescriptor &s, bool mispredicted) {
            nsp_.commitStream(s, mispredicted);
        });
}

void
StreamFetchEngine::predictStep()
{
    if (ftq_.full() || !image_->contains(fetchAddr_))
        return;

    StreamPrediction pred = nsp_.predict(fetchAddr_);
    std::uint64_t token = rec_.checkpoint();

    if (!pred.hit || pred.lenInsts == 0) {
        // Predictor miss: resort to sequential fetching, one line at
        // a time, re-querying the predictor at each line boundary.
        if (seqStart_ == kNoAddr)
            seqStart_ = fetchAddr_;
        const Addr line_end = reader_.lineEnd(fetchAddr_);
        FetchRequest req;
        req.start = fetchAddr_;
        req.lenInsts = static_cast<std::uint32_t>(
            (line_end - fetchAddr_) / kInstBytes);
        req.token = token;
        req.bounded = false;
        ftq_.push(req);
        reader_.prefetch(req.start);
        fetchAddr_ = line_end;
        ++seqRequests_;
        return;
    }
    seqStart_ = kNoAddr;

    const Addr seq = fetchAddr_ + instsToBytes(pred.lenInsts);
    Addr next = pred.next;

    if (pred.endType == BranchType::Call)
        rec_.ras.push(seq);
    else if (pred.endType == BranchType::Return)
        next = predictReturn(rec_.ras, *image_, next);

    if (next == kNoAddr || !image_->contains(next))
        next = seq; // defensive: stale target falls back sequential

    nsp_.specPush(fetchAddr_);

    FetchRequest req;
    req.start = fetchAddr_;
    req.lenInsts = pred.lenInsts;
    req.token = token;
    req.bounded = true;
    ftq_.push(req);
    reader_.prefetch(req.start);

    fetchAddr_ = next;
    ++streamsPredicted_;
    streamInstsPredicted_ += pred.lenInsts;
}

void
StreamFetchEngine::fetchCycle(Cycle now, unsigned max_insts,
                              FetchBundle &out)
{
    predictStep();
    const unsigned had = out.size();
    const Addr steer = drainFetchRequest(ftq_, reader_, *image_, rec_.ras,
                                         now, max_insts, out);
    instsFetched_ += out.size() - had;
    if (steer == kNoAddr)
        return;
    // A taken transfer ends the sequential stream: keep the
    // speculative path register in step with commit.
    if (seqStart_ != kNoAddr) {
        nsp_.specPush(seqStart_);
        seqStart_ = kNoAddr;
    }
    fetchAddr_ = steer;
}

void
StreamFetchEngine::redirect(const ResolvedBranch &rb)
{
    // Paper: copy the committed path register over the speculative
    // one, restoring correct history state. The path register is
    // the stream predictor's history, so the direction histories
    // stay unused.
    nsp_.recoverHistory();
    rec_.repair(rb, false);

    ftq_.clear();
    fetchAddr_ = rb.target;
    seqStart_ = kNoAddr;
    builder_->onMispredict();
    builder_->onRedirect(rb.target);
}

void
StreamFetchEngine::trainCommit(const CommittedBranch &cb)
{
    builder_->onBranch(cb);
}

StatSet
StreamFetchEngine::stats() const
{
    StatSet s = nsp_.stats();
    // Only the stream rows carry the cascade upgrades (Section 3.2).
    s.set("nsp.upgrades", double(nsp_.upgrades()));
    s.set("stream.predicted", double(streamsPredicted_));
    s.set("stream.avg_pred_len", streamsPredicted_
          ? double(streamInstsPredicted_) / double(streamsPredicted_)
          : 0.0);
    s.set("stream.seq_requests", double(seqRequests_));
    s.set("stream.insts_fetched", double(instsFetched_));
    s.set("stream.icache_misses", double(reader_.misses()));
    s.set("stream.commit_streams", double(builder_->streamsEmitted()));
    s.set("stream.partial_streams", double(builder_->partialStreams()));
    s.set("stream.avg_commit_len",
          builder_->lengthHistogram().mean());
    return s;
}

namespace detail
{

void
registerStreamEngine(EngineRegistry &reg)
{
    EngineDescriptor d;
    d.token = "stream";
    d.displayName = "Streams";
    d.summary =
        "the paper's stream fetch architecture: cascaded next stream "
        "predictor driving a wide-line i-cache through an FTQ";
    d.aliases = {"streams"};
    d.paperDefault = true;
    d.params
        .intParam("ftq", 4, "fetch target queue entries", 1)
        .intParam("ras", 8, "return address stack entries", 1)
        .intParam("max_stream", 64,
                  "predictor stream length cap in instructions", 1)
        .boolParam("single_table", false,
                   "ablation: drop the path-indexed second table, "
                   "all capacity address-indexed (Section 3.2)")
        .boolParam("no_hysteresis", false,
                   "ablation: 1-bit hysteresis-free replacement "
                   "counters (Section 3.2)");
    d.factory = [](const ParamSet &p, const CodeImage &image,
                   MemoryHierarchy *mem) {
        StreamConfig c;
        c.lineBytes = static_cast<unsigned>(p.getInt("line"));
        c.ftqEntries = static_cast<std::size_t>(p.getInt("ftq"));
        c.rasEntries = static_cast<std::size_t>(p.getInt("ras"));
        c.maxStreamInsts =
            static_cast<std::uint32_t>(p.getInt("max_stream"));
        if (p.getBool("single_table")) {
            // Ablation: all capacity in the address-indexed table.
            c.nsp.firstEntries = 8192;
            c.nsp.firstAssoc = 4;
            c.nsp.pathTableEnabled = false;
        }
        if (p.getBool("no_hysteresis"))
            c.nsp.counterBits = 1;
        return std::make_unique<StreamFetchEngine>(c, image, mem);
    };
    reg.add(std::move(d));
}

} // namespace detail

} // namespace sfetch
