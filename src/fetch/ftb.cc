#include "fetch/ftb.hh"

#include "sim/engine_registry.hh"

namespace sfetch
{

FtbEngine::FtbEngine(const FtbConfig &cfg, const CodeImage &image,
                     MemoryHierarchy *mem)
    : cfg_(cfg), image_(&image), reader_(mem, image, cfg.lineBytes),
      ftb_({cfg.ftbEntries, cfg.ftbAssoc}), perceptron_(cfg.perceptron),
      rec_(cfg.rasEntries), ftq_(cfg.ftqEntries),
      predPc_(image.entryAddr()), everTaken_(image.numInsts(), false),
      commitBlockStart_(image.entryAddr())
{}

void
FtbEngine::predictStep()
{
    if (ftq_.full() || !image_->contains(predPc_))
        return;

    std::uint64_t token = rec_.checkpoint();
    const auto hit = ftb_.lookup(predPc_);

    FetchRequest req;
    req.start = predPc_;
    req.token = token;

    if (!hit.hit) {
        // FTB miss: request sequentially to the end of the line and
        // continue; embedded branches are implicitly not-taken until
        // the i-cache stage spots an unconditional transfer.
        const Addr line_end = reader_.lineEnd(predPc_);
        req.lenInsts = static_cast<std::uint32_t>(
            (line_end - predPc_) / kInstBytes);
        req.bounded = false;
        ftq_.push(req);
        predPc_ = line_end;
        ++seqRequests_;
        return;
    }

    req.lenInsts = hit.lenInsts;
    req.bounded = true;
    Addr term_pc = predPc_ + instsToBytes(hit.lenInsts - 1);
    Addr seq = predPc_ + instsToBytes(hit.lenInsts);
    Addr next = seq;

    switch (hit.type) {
      case BranchType::CondDirect: {
        bool dir = perceptron_.predict(term_pc, rec_.specHist.value());
        rec_.specHist.push(dir);
        if (dir)
            next = hit.target;
        break;
      }
      case BranchType::Jump:
      case BranchType::IndirectJump:
        next = hit.target;
        break;
      case BranchType::Call:
        rec_.ras.push(seq);
        next = hit.target;
        break;
      case BranchType::Return:
        next = predictReturn(rec_.ras, *image_, seq);
        break;
      default:
        break;
    }

    ftq_.push(req);
    predPc_ = next;
    ++blocksPredicted_;
    blockInstsPredicted_ += hit.lenInsts;
}

void
FtbEngine::fetchCycle(Cycle now, unsigned max_insts,
                      FetchBundle &out)
{
    // The two decoupled pipelines advance in the same cycle; the
    // prediction stage runs ahead filling the FTQ.
    predictStep();
    const unsigned had = out.size();
    const Addr steer = drainFetchRequest(ftq_, reader_, *image_, rec_.ras,
                                         now, max_insts, out);
    instsFetched_ += out.size() - had;
    if (steer != kNoAddr)
        predPc_ = steer;
}

void
FtbEngine::redirect(const ResolvedBranch &rb)
{
    // Only block enders are in the history: a newly-taken embedded
    // branch enters the ever-taken set at commit, so its outcome will
    // be part of the committed history, but a never-taken one's not.
    rec_.repair(rb, rb.type == BranchType::CondDirect &&
                        (everTaken_[slot(rb.pc)] || rb.taken));
    ftq_.clear();
    predPc_ = rb.target;
}

void
FtbEngine::trainCommit(const CommittedBranch &cb)
{
    bool terminates;
    if (cb.taken) {
        everTaken_[slot(cb.pc)] = true;
        terminates = true;
    } else {
        terminates = everTaken_[slot(cb.pc)];
    }

    if (!terminates)
        return; // never-taken branch stays embedded in its block

    Addr block_end = cb.pc + kInstBytes;
    std::uint32_t len = static_cast<std::uint32_t>(
        (block_end - commitBlockStart_) / kInstBytes);

    // Over-length runs are chained as maximum-size blocks whose
    // "target" is simply the sequential continuation.
    while (len > cfg_.maxBlockInsts) {
        ftb_.update(commitBlockStart_, cfg_.maxBlockInsts,
                    BranchType::None,
                    commitBlockStart_ +
                        instsToBytes(cfg_.maxBlockInsts));
        commitBlockStart_ += instsToBytes(cfg_.maxBlockInsts);
        len -= cfg_.maxBlockInsts;
    }

    if (len >= 1 && block_end > commitBlockStart_) {
        Addr target = cb.taken ? cb.target
                               : image_->takenTarget(cb.pc);
        ftb_.update(commitBlockStart_, len, cb.type, target);
    }

    if (cb.type == BranchType::CondDirect) {
        // Note: a branch taken for the first time joins the
        // ever-taken set above, so it is trained from now on.
        perceptron_.update(cb.pc, rec_.commitHist.value(), cb.taken);
        rec_.commitHist.push(cb.taken);
    }

    commitBlockStart_ = cb.taken ? cb.target : cb.pc + kInstBytes;
}

StatSet
FtbEngine::stats() const
{
    StatSet s;
    s.set("ftb.lookups", double(ftb_.lookups()));
    s.set("ftb.hits", double(ftb_.hits()));
    s.set("ftb.blocks_predicted", double(blocksPredicted_));
    s.set("ftb.avg_block_len", blocksPredicted_
          ? double(blockInstsPredicted_) / double(blocksPredicted_)
          : 0.0);
    s.set("ftb.seq_requests", double(seqRequests_));
    s.set("ftb.insts_fetched", double(instsFetched_));
    s.set("ftb.icache_misses", double(reader_.misses()));
    return s;
}

namespace detail
{

void
registerFtbEngine(EngineRegistry &reg)
{
    EngineDescriptor d;
    d.token = "ftb";
    d.displayName = "FTB+perceptron";
    d.summary =
        "decoupled fetch target buffer front end with perceptron "
        "direction prediction and a fetch target queue";
    d.paperDefault = true;
    d.params
        .intParam("ftq", 4, "fetch target queue entries", 1)
        .intParam("ras", 8, "return address stack entries", 1)
        .intParam("ftb_entries", 2048, "fetch target buffer entries",
                  1)
        .intParam("ftb_assoc", 4, "fetch target buffer associativity",
                  1)
        .intParam("max_block", 64,
                  "fetch block length cap in instructions", 1);
    d.validate = [](const ParamSet &p) {
        checkTableGeometry(p, "ftb_entries", "ftb_assoc");
    };
    d.factory = [](const ParamSet &p, const CodeImage &image,
                   MemoryHierarchy *mem) {
        FtbConfig c;
        c.lineBytes = static_cast<unsigned>(p.getInt("line"));
        c.ftqEntries = static_cast<std::size_t>(p.getInt("ftq"));
        c.rasEntries = static_cast<std::size_t>(p.getInt("ras"));
        c.ftbEntries =
            static_cast<std::size_t>(p.getInt("ftb_entries"));
        c.ftbAssoc = static_cast<unsigned>(p.getInt("ftb_assoc"));
        c.maxBlockInsts =
            static_cast<std::uint32_t>(p.getInt("max_block"));
        return std::make_unique<FtbEngine>(c, image, mem);
    };
    reg.add(std::move(d));
}

} // namespace detail

} // namespace sfetch
