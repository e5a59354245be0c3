#include "fetch/ev8.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/engine_registry.hh"
#include "util/simd.hh"

namespace sfetch
{

Ev8Engine::Ev8Engine(const Ev8Config &cfg, const CodeImage &image,
                     MemoryHierarchy *mem)
    : cfg_(cfg), image_(&image), reader_(mem, image, cfg.lineBytes),
      gskew_(cfg.gskew), btb_(cfg.btb), rec_(cfg.rasEntries),
      pc_(image.entryAddr()),
      linePred_(cfg.linePredEntries, kNoAddr)
{}

std::size_t
Ev8Engine::linePredIndex(Addr pc) const
{
    // Indexed at fetch-block (width) granularity.
    return (pc / (cfg_.lineBytes / 4)) & (linePred_.size() - 1);
}

void
Ev8Engine::fetchCycle(Cycle now, unsigned max_insts,
                      FetchBundle &out)
{
    if (now < stallUntil_)
        return; // decode-stage target fix in progress

    // The EV8 fetches from an aligned window of two width-sized
    // blocks, up to the first predicted-taken branch. Nothing on a
    // deep wrong path (wait for the redirect) or an i-cache miss.
    const Addr window_bytes = cfg_.lineBytes / 2; // 2W instructions
    const Addr window_end =
        (pc_ & ~(window_bytes - 1)) + window_bytes;
    const ICacheRun run = reader_.read(
        now, pc_,
        std::min(max_insts,
                 static_cast<unsigned>((window_end - pc_) / kInstBytes)));
    if (run.len == 0)
        return;
    ++cyclesActive_;

    // Each branch carries its own checkpoint, so each ends a run; one
    // meta scan finds them, and the instructions between need no
    // decode at all.
    const Addr cycle_start = run.start;
    const unsigned n = run.len;
    const std::uint8_t *meta = run.meta;
    std::uint32_t bmask = simd::maskTestU8(meta, n, kMetaBranchBits);
    unsigned done = 0; // instructions delivered so far this cycle
    bool stopped = false;
    while (bmask && !stopped) {
        const unsigned j = simd::bottomBit(bmask);
        bmask &= bmask - 1;
        const BranchType bt = metaBranchType(meta[j]);
        const Addr bpc = cycle_start + instsToBytes(j);
        out.push(cycle_start + instsToBytes(done), j + 1 - done,
                 rec_.checkpoint());
        done = j + 1;

        Addr seq = bpc + kInstBytes;
        bool taken = false;
        Addr target = seq;
        bool cycle_break = false;

        // All taken targets come from the BTB (the EV8 fetch stage
        // has no decoder); direct jumps that miss the BTB are fixed
        // at decode at the cost of a short bubble.
        switch (bt) {
          case BranchType::CondDirect: {
            bool dir = gskew_.predict(bpc, rec_.specHist.value());
            rec_.specHist.push(dir);
            if (dir) {
                BtbEntry e = btb_.lookup(bpc);
                if (e.hit && image_->contains(e.target)) {
                    taken = true;
                    target = e.target;
                } else {
                    // Misfetch: predicted taken but no target known;
                    // fall through and let resolution repair it.
                    ++btbMissFetches_;
                }
            }
            break;
          }
          case BranchType::Jump:
          case BranchType::Call: {
            taken = true;
            BtbEntry e = btb_.lookup(bpc);
            if (e.hit && image_->contains(e.target)) {
                target = e.target;
            } else {
                target = image_->takenTarget(bpc);
                stallUntil_ = now + cfg_.decodeFixBubble;
                ++decodeFixes_;
                cycle_break = true;
            }
            if (bt == BranchType::Call)
                rec_.ras.push(seq);
            break;
          }
          case BranchType::Return:
            taken = true;
            target = predictReturn(rec_.ras, *image_, seq);
            break;
          case BranchType::IndirectJump: {
            BtbEntry e = btb_.lookup(bpc);
            if (e.hit && image_->contains(e.target)) {
                taken = true;
                target = e.target;
            } else {
                target = seq; // no target: keep fetching sequentially
            }
            break;
          }
          default:
            break;
        }

        pc_ = target;
        // EV8 fetches up to the first taken branch per cycle.
        stopped = taken || cycle_break;
        takenBreaks_ += stopped;
    }
    if (!stopped && done < n) {
        // Past the last branch: a plain run, no checkpoint.
        out.push(cycle_start + instsToBytes(done), n - done, 0);
        done = n;
        pc_ = cycle_start + instsToBytes(n);
    }
    instsFetched_ += done;

    // Line predictor check: the cache was steered by the fast
    // next-fetch-address table; if the full prediction disagrees,
    // the next access restarts after a misfetch bubble.
    std::size_t lp = linePredIndex(cycle_start);
    if (linePred_[lp] != pc_) {
        linePred_[lp] = pc_;
        if (stallUntil_ < now + cfg_.linePredBubble)
            stallUntil_ = now + cfg_.linePredBubble + 1;
        ++lineMisfetches_;
    }
}

void
Ev8Engine::redirect(const ResolvedBranch &rb)
{
    // Precise repair from the branch's shadow checkpoint: history as
    // of prediction time, then the resolved outcome appended.
    rec_.repair(rb, true);
    pc_ = rb.target;
    stallUntil_ = 0;
}

void
Ev8Engine::trainCommit(const CommittedBranch &cb)
{
    if (cb.type == BranchType::CondDirect) {
        gskew_.update(cb.pc, rec_.commitHist.value(), cb.taken);
        rec_.commitHist.push(cb.taken);
    }
    // Every taken branch installs its target.
    if (cb.taken)
        btb_.update(cb.pc, cb.target, cb.type);
}

StatSet
Ev8Engine::stats() const
{
    StatSet s;
    s.set("ev8.cycles_active", double(cyclesActive_));
    s.set("ev8.insts_fetched", double(instsFetched_));
    s.set("ev8.taken_breaks", double(takenBreaks_));
    s.set("ev8.icache_misses", double(reader_.misses()));
    s.set("ev8.btb_miss_fetches", double(btbMissFetches_));
    s.set("ev8.decode_fixes", double(decodeFixes_));
    s.set("ev8.line_misfetches", double(lineMisfetches_));
    s.set("ev8.btb_hit_rate", btb_.lookups()
          ? double(btb_.hits()) / double(btb_.lookups()) : 0.0);
    return s;
}

namespace detail
{

void
registerEv8Engine(EngineRegistry &reg)
{
    EngineDescriptor d;
    d.token = "ev8";
    d.displayName = "EV8+2bcgskew";
    d.summary =
        "coupled wide-line front end: 2bcgskew direction predictor, "
        "BTB, line predictor, 8-entry RAS (Table 2 baseline)";
    d.paperDefault = true;
    d.params
        .intParam("ras", 8, "return address stack entries", 1)
        .intParam("btb_entries", 2048, "BTB entries", 1)
        .intParam("btb_assoc", 4, "BTB associativity", 1)
        .intParam("line_pred", 4096, "line predictor entries", 1);
    d.validate = [](const ParamSet &p) {
        // The fetch window is half a line: at least one instruction.
        const std::int64_t line = p.getInt("line");
        if (line != 0 && line < 2 * std::int64_t(kInstBytes))
            throw std::invalid_argument(
                "parameter 'line' must be 0 or >= " +
                std::to_string(2 * kInstBytes) + " for ev8, got " +
                std::to_string(line));
        checkTableGeometry(p, "btb_entries", "btb_assoc");
        // linePredIndex() masks with the table size.
        checkTableGeometry(p, "line_pred");
    };
    d.factory = [](const ParamSet &p, const CodeImage &image,
                   MemoryHierarchy *mem) {
        Ev8Config c;
        c.lineBytes = static_cast<unsigned>(p.getInt("line"));
        c.rasEntries = static_cast<std::size_t>(p.getInt("ras"));
        c.btb.entries =
            static_cast<std::size_t>(p.getInt("btb_entries"));
        c.btb.assoc = static_cast<unsigned>(p.getInt("btb_assoc"));
        c.linePredEntries =
            static_cast<std::size_t>(p.getInt("line_pred"));
        return std::make_unique<Ev8Engine>(c, image, mem);
    };
    reg.add(std::move(d));
}

} // namespace detail

} // namespace sfetch
