/**
 * @file
 * EV8-style fetch engine: the paper's first baseline. A coupled
 * front end that fetches sequential instructions from a single wide
 * i-cache line, past not-taken branches, up to the first predicted-
 * taken branch, using the 2bcgskew conditional predictor (Seznec et
 * al.) and an 8-entry RAS. Indirect targets come from a BTB.
 */

#ifndef SFETCH_FETCH_EV8_HH
#define SFETCH_FETCH_EV8_HH

#include "bpred/btb.hh"
#include "bpred/gskew.hh"
#include "fetch/fetch_engine.hh"

namespace sfetch
{

/** Configuration of the EV8 front end. */
struct Ev8Config
{
    GskewConfig gskew;
    BtbConfig btb{2048, 4};
    std::size_t rasEntries = 8;
    unsigned lineBytes = 128; //!< 4x an 8-wide pipe (Table 2)
    /**
     * Decode-stage bubble when a direct jump/call misses the BTB and
     * the target is recomputed at decode.
     */
    Cycle decodeFixBubble = 2;

    /**
     * Line predictor (21264/EV8 style): the i-cache is steered by a
     * next-fetch-address table; when the slower 2bcgskew/BTB outcome
     * disagrees, the fetch restarts with a one-cycle misfetch bubble.
     */
    std::size_t linePredEntries = 4096;
    Cycle linePredBubble = 1;
};

/** The EV8 fetch engine. */
class Ev8Engine : public FetchEngine
{
  public:
    Ev8Engine(const Ev8Config &cfg, const CodeImage &image,
              MemoryHierarchy *mem);

    void fetchCycle(Cycle now, unsigned max_insts,
                    FetchBundle &out) override;
    void redirect(const ResolvedBranch &rb) override;
    void trainCommit(const CommittedBranch &cb) override;
    std::string name() const override { return "EV8+2bcgskew"; }
    StatSet stats() const override;

  private:
    Ev8Config cfg_;
    const CodeImage *image_;
    ICacheReader reader_;
    GskewPredictor gskew_;
    Btb btb_;
    BranchRecovery rec_;

    Addr pc_ = kNoAddr;
    Cycle stallUntil_ = 0; //!< decode-fix bubble in progress

    /** Line predictor: fetch address -> predicted next fetch addr. */
    std::vector<Addr> linePred_;

    std::size_t linePredIndex(Addr pc) const;

    // stats
    std::uint64_t cyclesActive_ = 0;
    std::uint64_t instsFetched_ = 0;
    std::uint64_t takenBreaks_ = 0;
    std::uint64_t btbMissFetches_ = 0;
    std::uint64_t decodeFixes_ = 0;
    std::uint64_t lineMisfetches_ = 0;
};

} // namespace sfetch

#endif // SFETCH_FETCH_EV8_HH
