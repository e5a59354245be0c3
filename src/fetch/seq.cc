#include "fetch/seq.hh"

#include <algorithm>

#include "sim/engine_registry.hh"

namespace sfetch
{

SeqEngine::SeqEngine(const SeqConfig &cfg, const CodeImage &image,
                     MemoryHierarchy *mem)
    : cfg_(cfg), image_(&image), reader_(mem, cfg.lineBytes),
      pc_(image.entryAddr())
{}

void
SeqEngine::fetchCycle(Cycle now, unsigned max_insts,
                      FetchBundle &out)
{
    if (!image_->contains(pc_))
        return; // ran off the image: wait for a redirect

    unsigned avail = reader_.available(now, pc_);
    if (avail == 0)
        return; // i-cache miss in service

    // No predictions, so no checkpoints: token 0.
    const unsigned n = std::min(
        {avail, max_insts,
         static_cast<unsigned>((image_->endAddr() - pc_) / kInstBytes)});
    out.push(pc_, n, 0);
    pc_ += instsToBytes(n);
    instsFetched_ += n;
}

void
SeqEngine::redirect(const ResolvedBranch &rb)
{
    pc_ = rb.target;
    ++redirects_;
}

void
SeqEngine::trainCommit(const CommittedBranch &)
{
    // Nothing learns; that is the point.
}

StatSet
SeqEngine::stats() const
{
    StatSet s;
    s.set("seq.insts_fetched", double(instsFetched_));
    s.set("seq.redirects", double(redirects_));
    s.set("seq.icache_misses", double(reader_.misses()));
    return s;
}

namespace detail
{

void
registerSeqEngine(EngineRegistry &reg)
{
    EngineDescriptor d;
    d.token = "seq";
    d.displayName = "NextLine";
    d.summary =
        "predictionless next-line sequential fetch; the weakest "
        "baseline and the one-file extensibility example";
    d.aliases = {"nextline"};
    d.factory = [](const ParamSet &p, const CodeImage &image,
                   MemoryHierarchy *mem) {
        SeqConfig c;
        c.lineBytes = static_cast<unsigned>(p.getInt("line"));
        return std::make_unique<SeqEngine>(c, image, mem);
    };
    reg.add(std::move(d));
}

} // namespace detail

} // namespace sfetch
