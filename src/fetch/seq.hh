/**
 * @file
 * The `seq` front end: a deliberately minimal next-line-only fetch
 * engine with no prediction at all. It streams instructions
 * sequentially from the i-cache and relies entirely on processor
 * redirects to follow taken branches — the weakest possible baseline
 * (every taken branch is a "misprediction"), and the registry's
 * living example of adding a front end in one self-contained file:
 * engine + descriptor + registration, zero driver or CLI changes.
 */

#ifndef SFETCH_FETCH_SEQ_HH
#define SFETCH_FETCH_SEQ_HH

#include "fetch/fetch_engine.hh"

namespace sfetch
{

/** Configuration of the sequential front end. */
struct SeqConfig
{
    unsigned lineBytes = 128;
};

/** Next-line-only sequential fetch engine. */
class SeqEngine : public FetchEngine
{
  public:
    SeqEngine(const SeqConfig &cfg, const CodeImage &image,
              MemoryHierarchy *mem);

    void fetchCycle(Cycle now, unsigned max_insts,
                    FetchBundle &out) override;
    void redirect(const ResolvedBranch &rb) override;
    void trainCommit(const CommittedBranch &cb) override;
    std::string name() const override { return "NextLine"; }
    StatSet stats() const override;

  private:
    ICacheReader reader_;
    Addr pc_ = kNoAddr;

    std::uint64_t instsFetched_ = 0;
    std::uint64_t redirects_ = 0;
};

} // namespace sfetch

#endif // SFETCH_FETCH_SEQ_HH
