/**
 * @file
 * The stream fetch engine (Section 3, Figure 4 of the paper): a
 * decoupled front end whose only instruction source is a wide-line
 * instruction cache, driven by the cascaded next stream predictor
 * through a fetch target queue with in-place request updates. On a
 * predictor miss the engine falls back to sequential fetching until
 * the predictor hits again or a misprediction redirect arrives.
 */

#ifndef SFETCH_CORE_STREAM_ENGINE_HH
#define SFETCH_CORE_STREAM_ENGINE_HH

#include <memory>

#include "bpred/predictor_tables.hh"
#include "core/stream_builder.hh"
#include "fetch/fetch_engine.hh"

namespace sfetch
{

/**
 * What the next stream predictor holds for one stream: its length,
 * terminator type and the next stream's start. Its path registers
 * record stream start addresses.
 */
struct StreamPayload
{
    using Unit = StreamDescriptor;
    static constexpr const char *kStatPrefix = "nsp.";
    /**
     * Paper (Table 2): 1K-entry 4-way and 6K-entry 3-way tables,
     * DOLC 12-2-4-10.
     */
    static constexpr CascadedConfig kPaperConfig{1024, 4, 6144, 3,
                                                 {12, 2, 4, 10}};
    static constexpr unsigned kPayloadBits = 8 + 3 + 32; //!< len+type+next

    std::uint32_t lenInsts = 0;
    BranchType endType = BranchType::None;
    Addr next = kNoAddr;

    StreamPayload() = default;
    explicit StreamPayload(const StreamDescriptor &s)
        : lenInsts(s.lenInsts), endType(s.endType), next(s.next)
    {}

    static Addr pathId(const StreamDescriptor &s) { return s.start; }

    bool
    operator==(const StreamPayload &o) const
    {
        return lenInsts == o.lenInsts && next == o.next &&
               endType == o.endType;
    }
};

/** The cascaded next stream predictor (Section 3.2, Figure 5). */
using NextStreamPredictor = CascadedPredictor<StreamPayload>;
using StreamPrediction = NextStreamPredictor::Prediction;

/** Configuration of the stream front end (Table 2 of the paper). */
struct StreamConfig
{
    CascadedConfig nsp = StreamPayload::kPaperConfig;
    std::size_t rasEntries = 8;
    std::size_t ftqEntries = 4;
    unsigned lineBytes = 128;       //!< 4x an 8-wide pipe
    std::uint32_t maxStreamInsts = 64; //!< predictor length field cap
};

/** The stream fetch engine. */
class StreamFetchEngine : public FetchEngine
{
  public:
    StreamFetchEngine(const StreamConfig &cfg, const CodeImage &image,
                      MemoryHierarchy *mem);

    void fetchCycle(Cycle now, unsigned max_insts,
                    FetchBundle &out) override;
    void redirect(const ResolvedBranch &rb) override;
    void trainCommit(const CommittedBranch &cb) override;
    std::string name() const override { return "Streams"; }
    StatSet stats() const override;

    /** Direct access for tests and ablation benches. */
    const NextStreamPredictor &predictor() const { return nsp_; }

  private:
    void predictStep();

    StreamConfig cfg_;
    const CodeImage *image_;
    ICacheReader reader_;
    NextStreamPredictor nsp_;
    BranchRecovery rec_;
    FetchTargetQueue ftq_;
    std::unique_ptr<StreamBuilder> builder_;

    Addr fetchAddr_ = kNoAddr;

    /**
     * Start address of the stream being fetched in sequential
     * (predictor-miss) mode, so the speculative path register can be
     * kept in step with the committed one when the sequential run
     * ends at a steer; kNoAddr when not in sequential mode.
     */
    Addr seqStart_ = kNoAddr;

    // stats
    std::uint64_t streamsPredicted_ = 0;
    std::uint64_t streamInstsPredicted_ = 0;
    std::uint64_t seqRequests_ = 0;
    std::uint64_t instsFetched_ = 0;
};

} // namespace sfetch

#endif // SFETCH_CORE_STREAM_ENGINE_HH
