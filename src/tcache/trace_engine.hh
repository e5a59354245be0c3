/**
 * @file
 * Trace cache fetch engine: the paper's high-end comparison point.
 * Primary path: next trace predictor -> trace cache, delivering a
 * whole trace (possibly crossing taken branches) per access; when a
 * trace is wider than the pipeline, the predictor and trace cache
 * stall together while it drains. Secondary path on a trace cache or
 * predictor miss: conventional i-cache fetch up to the first
 * predicted-taken branch per cycle, using a backup BTB, a gshare
 * direction predictor, and the shared RAS — the redundant second
 * engine whose cost the paper's stream architecture avoids.
 */

#ifndef SFETCH_TCACHE_TRACE_ENGINE_HH
#define SFETCH_TCACHE_TRACE_ENGINE_HH

#include <memory>

#include "bpred/btb.hh"
#include "bpred/direction_pred.hh"
#include "bpred/predictor_tables.hh"
#include "fetch/fetch_engine.hh"
#include "tcache/fill_unit.hh"
#include "tcache/trace_cache.hh"
#include "util/inline_vec.hh"

namespace sfetch
{

/**
 * What the next trace predictor holds for one trace: the embedded
 * branch directions (so the trace cache can be probed for the exact
 * trace), its length, terminator type and successor fetch address.
 * Its path registers record trace ids.
 */
struct TracePayload
{
    using Unit = TraceDescriptor;
    static constexpr const char *kStatPrefix = "ntp.";
    /**
     * Paper (Table 2): 1K-entry 4-way and 4K-entry 4-way tables,
     * DOLC 9-4-7-9.
     */
    static constexpr CascadedConfig kPaperConfig{1024, 4, 4096, 4,
                                                 {9, 4, 7, 9}};

    std::uint32_t dirBits = 0;
    std::uint8_t numCond = 0;
    std::uint32_t totalInsts = 0;
    BranchType endType = BranchType::None;
    Addr next = kNoAddr;

    TracePayload() = default;
    explicit TracePayload(const TraceDescriptor &t)
        : dirBits(t.dirBits), numCond(t.numCond),
          totalInsts(t.totalInsts), endType(t.endType), next(t.next)
    {}

    static Addr pathId(const TraceDescriptor &t) { return t.id(); }

    bool
    operator==(const TracePayload &o) const
    {
        return dirBits == o.dirBits && numCond == o.numCond &&
               totalInsts == o.totalInsts && next == o.next &&
               endType == o.endType;
    }
};

/** The next trace predictor (Jacobson, Rotenberg, Smith, MICRO 1997). */
using NextTracePredictor = CascadedPredictor<TracePayload>;
using TracePrediction = NextTracePredictor::Prediction;

/** Configuration of the trace cache front end (Table 2). */
struct TraceEngineConfig
{
    CascadedConfig ntp = TracePayload::kPaperConfig;
    TraceCacheConfig tcache;
    FillUnitConfig fill;
    BtbConfig backupBtb{1024, 4}; //!< paper: backup BTB 1K-entry 4-way
    std::size_t gshareEntries = 8192;
    unsigned gshareHistoryBits = 12;
    std::size_t rasEntries = 8;
    unsigned lineBytes = 128;
    /**
     * Partial matching: on an exact trace miss, serve the prefix of
     * a same-start resident trace that agrees with the predicted
     * directions. Off by default — the paper excludes it because it
     * degrades performance with layout-optimized codes (footnote 3).
     */
    bool partialMatching = false;
};

/** The trace cache fetch engine. */
class TraceFetchEngine : public FetchEngine
{
  public:
    TraceFetchEngine(const TraceEngineConfig &cfg,
                     const CodeImage &image, MemoryHierarchy *mem);

    void fetchCycle(Cycle now, unsigned max_insts,
                    FetchBundle &out) override;
    void redirect(const ResolvedBranch &rb) override;
    void trainCommit(const CommittedBranch &cb) override;
    std::string name() const override { return "Tcache+Tpred"; }
    StatSet stats() const override;

    const TraceCache &traceCache() const { return tcache_; }
    const NextTracePredictor &predictor() const { return ntp_; }

  private:
    /** Outcome of attempting the primary (trace) path. */
    enum class TraceTry
    {
        Hit,        //!< trace latched from the trace cache
        WalkStart,  //!< prediction hit, trace cache miss: walk it
        Miss,       //!< no prediction: plain secondary fetch
    };

    /** Try the primary (trace) path. */
    TraceTry tryTracePath();

    /**
     * Fetch a *predicted but not cached* trace from the i-cache,
     * following the predicted conditional directions: this is where
     * selective trace storage sends sequential traces. One line /
     * one taken branch per cycle.
     */
    void walkStep(Cycle now, unsigned max_insts,
                  FetchBundle &out);

    /** Secondary path (no prediction): one fetch block per cycle. */
    void secondaryFetch(Cycle now, unsigned max_insts,
                        FetchBundle &out);

    /** Drain the latched trace into @p out. */
    void emitTrace(unsigned max_insts, FetchBundle &out);

    /** Address after the last latched instruction. */
    Addr latchedEnd() const;

    /**
     * Latch @p t's segments for emission under @p token, replaying
     * their calls' RAS pushes and their conditionals' directions,
     * taken from @p dirs (bit i for the i-th), onto the speculative
     * state. The first conditional where @p dirs differs from the
     * trace's own directions cuts the trace after it.
     * @return the address after the cut branch on its @p dirs
     *         direction, or kNoAddr when the trace was latched whole.
     */
    Addr latchTrace(const TraceDescriptor &t, std::uint32_t dirs,
                    std::uint64_t token);

    TraceEngineConfig cfg_;
    const CodeImage *image_;
    ICacheReader reader_;
    NextTracePredictor ntp_;
    TraceCache tcache_;
    std::unique_ptr<TraceFillUnit> fill_;
    Btb btb_;
    GsharePredictor gshare_;
    BranchRecovery rec_;

    Addr fetchAddr_ = kNoAddr;

    /**
     * Latched trace being drained: a copy of its segments (the cache
     * may replace the trace meanwhile; the copy is inline, never a
     * heap allocation), each cut down in place as it drains, the
     * next one to emit, and the token of every branch in them.
     */
    InlineVec<TraceSegment, TraceDescriptor::kMaxSegments> emitSegs_;
    unsigned emitSeg_ = 0;
    std::uint64_t emitToken_ = 0;

    /** In-progress predicted-trace walk (trace cache miss). */
    struct PredWalk
    {
        bool active = false;
        Addr pc = kNoAddr;
        std::uint32_t dirBits = 0;
        std::uint8_t condsLeft = 0;
        std::uint32_t instsLeft = 0;
        Addr nextAfter = kNoAddr;
        std::uint64_t traceId = 0;
        std::uint64_t token = 0;
    };
    PredWalk walk_;

    // stats
    std::uint64_t traceHits_ = 0;
    std::uint64_t traceMisses_ = 0;
    std::uint64_t partialHits_ = 0;
    std::uint64_t secondaryCycles_ = 0;
    std::uint64_t instsFromTrace_ = 0;
    std::uint64_t instsFromIcache_ = 0;
};

} // namespace sfetch

#endif // SFETCH_TCACHE_TRACE_ENGINE_HH
