#include "fetch/seq.hh"

#include "sim/engine_registry.hh"

namespace sfetch
{

SeqEngine::SeqEngine(const SeqConfig &cfg, const CodeImage &image,
                     MemoryHierarchy *mem)
    : reader_(mem, image, cfg.lineBytes),
      pc_(image.entryAddr())
{}

void
SeqEngine::fetchCycle(Cycle now, unsigned max_insts,
                      FetchBundle &out)
{
    // Nothing while off the image (a redirect will come) or while an
    // i-cache miss is in service.
    const ICacheRun run = reader_.read(now, pc_, max_insts);
    if (run.len == 0)
        return;

    // No predictions, so no checkpoints: token 0.
    out.push(pc_, run.len, 0);
    pc_ += instsToBytes(run.len);
    instsFetched_ += run.len;
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
