/**
 * @file
 * Trace-driven superscalar processor model (Section 4.1 of the
 * paper): a detailed front end (the pluggable FetchEngine) coupled to
 * a simple decoupled back end.
 *
 * The fetch engine runs self-directed through the static basic block
 * dictionary (CodeImage), so wrong-path fetch — with its speculative
 * history pollution and i-cache interference/prefetching — is
 * modelled naturally. The processor compares the fetched PC stream
 * against the committed (oracle) path; on divergence the preceding
 * branch is flagged mispredicted and a redirect is delivered when it
 * resolves, branchResolveLat cycles after dispatch.
 *
 * Back end: in-order dispatch of up to `width` instructions per cycle
 * into a ROB; per-class execution latencies (loads access the d-cache
 * with a synthetic, architecture-independent address stream);
 * in-order retirement of up to `width` per cycle. Branches retire one
 * cycle after they resolve.
 */

#ifndef SFETCH_PIPELINE_PROCESSOR_HH
#define SFETCH_PIPELINE_PROCESSOR_HH

#include "fetch/fetch_engine.hh"
#include "layout/oracle_arena.hh"
#include "util/fixed_ring.hh"
#include "util/stats.hh"

namespace sfetch
{

/** Back-end and protocol parameters (Table 2 common settings). */
struct ProcessorConfig
{
    unsigned width = 8;          //!< pipe width (2, 4, or 8)
    unsigned pipeDepth = 16;     //!< paper: 16 stages (informational)
    /**
     * Cycles from a branch's dispatch to its resolution (redirect
     * delivery). Approximately pipeDepth minus the front-end stages.
     */
    Cycle branchResolveLat = 12;
    unsigned robSize = 256;
    unsigned fetchBufferInsts = 32;

    Cycle latAlu = 1;
    Cycle latMul = 3;
    Cycle latFp = 4;
    Cycle latStore = 1;

    /** Abort threshold: cycles without commit progress. */
    Cycle deadlockCycles = 200000;

    /**
     * Batched replay core: process fetch/dispatch/commit in runs
     * over contiguous memory instead of one instruction per loop
     * iteration. Bit-identical to the scalar paths by construction
     * (enforced by the window invariance suite in
     * test_workload_diff.cc); off switches every batch stage back to
     * the scalar reference, which reads the same committed path.
     */
    bool batchedReplay = true;

    /**
     * Stop each run() phase at an exact committed-instruction
     * boundary by capping the final commit cycle at the remaining
     * count, instead of letting it overshoot by up to width-1.
     * committedInsts becomes exactly the budget; because the trimmed
     * overshoot commits (and trains predictors) a cycle later, the
     * run is a slightly different — equally valid — simulation, so
     * the default stays off: goldens pin the historical overshooting
     * counts. The throughput harness turns it on so committed_insts
     * — and thus Minsts/s — are exactly comparable across rows.
     */
    bool exactInstStop = false;
};

/** Results of a simulation run. */
struct SimStats
{
    /** Arity of mispredictsByType (one slot per BranchType). */
    static constexpr std::size_t kNumBranchTypes = 7;

    Cycle cycles = 0;
    InstCount committedInsts = 0;
    std::uint64_t committedBranches = 0;
    std::uint64_t committedCondBranches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t condMispredicts = 0;
    /** Divergences by branch type (indexed by BranchType). */
    std::uint64_t mispredictsByType[kNumBranchTypes] = {};
    std::uint64_t fetchedCorrect = 0;
    std::uint64_t fetchedWrong = 0;
    /** Cycles where the engine had a full-width opportunity. */
    std::uint64_t fetchCyclesAttempted = 0;
    /** Correct-path instructions delivered in those cycles. */
    std::uint64_t fetchOppInsts = 0;
    double l1iMissRate = 0.0;
    double l1dMissRate = 0.0;
    StatSet engine;

    double
    ipc() const
    {
        return cycles ? double(committedInsts) / double(cycles) : 0.0;
    }

    /**
     * Useful instructions per full-width fetch opportunity — the
     * paper's "Fetch IPC" (Table 3). Wrong-path cycles count as
     * opportunities that delivered nothing useful.
     */
    double
    fetchIpc() const
    {
        return fetchCyclesAttempted
            ? double(fetchOppInsts) / double(fetchCyclesAttempted)
            : 0.0;
    }

    /** Mispredictions per committed branch. */
    double
    mispredictRate() const
    {
        return committedBranches
            ? double(mispredicts) / double(committedBranches) : 0.0;
    }
};

/**
 * Exact equality over every counter and engine stat; the sweep
 * driver's parallel-equals-serial guarantee is stated in terms of
 * this comparison.
 */
inline bool
operator==(const SimStats &a, const SimStats &b)
{
    for (std::size_t t = 0; t < SimStats::kNumBranchTypes; ++t)
        if (a.mispredictsByType[t] != b.mispredictsByType[t])
            return false;
    return a.cycles == b.cycles &&
        a.committedInsts == b.committedInsts &&
        a.committedBranches == b.committedBranches &&
        a.committedCondBranches == b.committedCondBranches &&
        a.mispredicts == b.mispredicts &&
        a.condMispredicts == b.condMispredicts &&
        a.fetchedCorrect == b.fetchedCorrect &&
        a.fetchedWrong == b.fetchedWrong &&
        a.fetchCyclesAttempted == b.fetchCyclesAttempted &&
        a.fetchOppInsts == b.fetchOppInsts &&
        a.l1iMissRate == b.l1iMissRate &&
        a.l1dMissRate == b.l1dMissRate &&
        a.engine == b.engine;
}

inline bool
operator!=(const SimStats &a, const SimStats &b)
{
    return !(a == b);
}

/** The processor model. */
class Processor
{
  public:
    /**
     * Entries of the private committed-path window every run reads
     * its committed path through. A refill keeps everything from
     * the ROB head on (the ROB, the fetch buffer and the rest of the
     * current bundle) and must leave room for the next bundle; the
     * constructor demands that this bound, minWindowInsts(), fit in
     * half the window, so every refill adds at least half a window
     * of new instructions. Every run allocates and first touches its
     * window, so it is kept small: at 16K entries (208 KB) that
     * set-up cost short served runs (60K instructions) ~10% of their
     * throughput.
     */
    static constexpr std::size_t kOracleWindowInsts = 4 * 1024;

    /** Window entries a refill must be able to hold for @p cfg. */
    static std::size_t
    minWindowInsts(const ProcessorConfig &cfg)
    {
        return std::size_t(cfg.robSize) + cfg.fetchBufferInsts +
            2 * FetchBundle::kCapacity;
    }

    /**
     * @param cfg Back-end configuration.
     * @param engine Front end under test (not owned).
     * @param image Placed binary (not owned).
     * @param model Workload behaviour (copied into the oracle).
     * @param mem Memory hierarchy shared with the engine (not owned).
     * @param seed Oracle/data-stream seed (the `ref` input).
     * @param replay Optional recorded control trace (not owned; must
     *        outlive the processor). When set, the committed path is
     *        decoded from it instead of generated live; with matching
     *        @p seed the run is bit-identical to live generation.
     * @param arena Optional shared pre-decoded committed path (not
     *        owned; must outlive the processor and have been built
     *        from the same image/model/@p seed). When set, the run's
     *        window is refilled from it instead of from a private
     *        decoder — bit-identical, with no workload-model work per
     *        instruction. Mutually exclusive with @p replay.
     */
    Processor(const ProcessorConfig &cfg, FetchEngine *engine,
              const CodeImage &image, const WorkloadModel &model,
              MemoryHierarchy *mem, std::uint64_t seed,
              const RecordedTrace *replay = nullptr,
              const OracleArena *arena = nullptr);

    /**
     * Simulate until @p insts instructions have committed (after
     * first running @p warmup_insts with statistics discarded).
     * @return measured statistics.
     */
    SimStats run(InstCount insts, InstCount warmup_insts = 0);

    /** Total cycles simulated so far (including warmup). */
    Cycle now() const { return now_; }

  private:
    /**
     * ROB entry. The ROB holds consecutive committed-path positions
     * [totalCommitted_, dispatchPos_), so an entry needs no index of
     * its own; the committed-path fields are read from path_.
     */
    struct RobEntry
    {
        Cycle completeAt;
        /**
         * Dispatch cycle, carried in the entry so a divergence can
         * schedule the redirect without a side-table lookup.
         */
        Cycle dispatchedAt;
    };

    /**
     * Checkpoint of the newest correct-path branch fetched, for
     * divergence attribution (see declareDivergence).
     */
    struct PrevBranch
    {
        std::uint64_t pos; //!< committed-path position
        ResolvedBranch resolved; //!< what a redirect to it delivers
    };

    std::uint8_t
    metaAt(std::uint64_t pos) const
    {
        return path_.meta[pos - path_.first];
    }

    /** Address of committed position @p pos (pos == last included). */
    Addr
    pcAt(std::uint64_t pos) const
    {
        return path_.base + path_.pcOff[pos - path_.first];
    }

    /** The committed branch at @p pos, as the engine learns it. */
    CommittedBranch committedBranch(std::uint64_t pos,
                                    std::uint8_t mb) const;

    /**
     * Make positions up to fetchPos_ + width readable: refill the
     * window when it runs short. Once its source has run out, the
     * window's end is where the committed path ends.
     */
    void ensureFetchWindow();
    [[noreturn]] void throwPathExhausted() const;

    void commitStep(SimStats &st);
    void commitStepBatched(SimStats &st);
    void dispatchStep(SimStats &st);
    void dispatchStepBatched(SimStats &st);
    /** Dispatch committed position @p pos into a fresh ROB entry. */
    void dispatchOne(std::uint64_t pos);
    void prefetchData();
    void redirectStep();
    void fetchStep(SimStats &st);
    /** Bundle-at-once oracle verify + ingest. */
    void verifyBundleBatched(SimStats &st, bool full_opportunity);
    /** Per-instruction verify + ingest (the scalar reference). */
    void verifyBundleScalar(SimStats &st, bool full_opportunity);
    /** Checkpoint the branch at @p pos fetched with @p token. */
    void checkpointBranch(std::uint64_t pos, std::uint64_t token);
    void declareDivergence(SimStats &st);
    /** Execute latency of a packed meta byte (class in bits 0-2). */
    Cycle execLatencyMeta(std::uint8_t mb);

    /**
     * Fixed execute latency per InstClass, filled from the config at
     * construction. Loads are the one class whose latency is not
     * fixed (d-cache access); stores are fixed but still consume a
     * data address. Both are special-cased before the table lookup.
     */
    Cycle latByCls_[8] = {};

    /** Silent-fetch watchdog bound (>> worst-case memory latency). */
    static constexpr Cycle kSilenceBound = 512;

    ProcessorConfig cfg_;
    FetchEngine *engine_;
    MemoryHierarchy *mem_;

    /** The committed path as the pipeline reads it. */
    OracleView path_;
    /** The run's private window behind path_. */
    std::unique_ptr<OracleWindow> window_;
    /** Next data access to dispatch (index into path_.data). */
    std::uint64_t dataPos_ = 0;
    /** How far ahead of dataPos_ the d-cache tag prefetch runs. */
    static constexpr std::uint64_t kDataPrefetchAhead = 12;
    std::uint64_t dataPrefetched_ = 0;

    Cycle now_ = 0;
    Addr expectedPc_;
    /**
     * The fetch buffer holds committed positions [dispatchPos_,
     * fetchPos_); the ROB holds [totalCommitted_, dispatchPos_).
     */
    std::uint64_t fetchPos_ = 0;
    std::uint64_t dispatchPos_ = 0;
    FixedRing<RobEntry> rob_;
    /** Reused every cycle; never reallocates. */
    FetchBundle bundle_;

    // Divergence / redirect state.
    bool diverged_ = false;
    ResolvedBranch faulting_;
    std::uint64_t faultingPos_ = 0;
    bool redirectPending_ = false;
    Cycle redirectAt_ = 0;
    bool redirectTimeKnown_ = false;

    /**
     * Divergence attribution state. A divergence can only legally
     * follow a branch, so only branches are checkpointed into prev_;
     * lastWasBranch_ tracks whether the newest correct-path fetch
     * actually was that branch.
     */
    bool havePrev_ = false;
    bool lastWasBranch_ = false;
    PrevBranch prev_;

    InstCount totalCommitted_ = 0;
    Cycle silentFetchCycles_ = 0;

    bool measuring_ = false;

    /** Batch stages enabled (ProcessorConfig::batchedReplay). */
    bool batched_ = true;
    /** Commit cap for exactInstStop; no bound when disabled. */
    InstCount stopAt_ = ~InstCount(0);
};

} // namespace sfetch

#endif // SFETCH_PIPELINE_PROCESSOR_HH
