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
    /**
     * Cycles from a branch's dispatch to its resolution (redirect
     * delivery): the paper's 16-stage pipe minus its front-end
     * stages.
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

/**
 * Every SimStats field, declared once as KIND(member, "name"): COUNT
 * a count, BY_TYPE one count per BranchType (a JSON array under its
 * name, CSV columns <prefix>0, <prefix>1, ...), RATE a stored double,
 * and RATIO the derived member function of that name, written after
 * the stored fields and never read back. The members, operator==
 * and every row writer and reader in sim/results.cc come from this
 * list, in its order, so adding a counter is one line here.
 */
#define SFETCH_SIM_STATS(COUNT, BY_TYPE, RATE, RATIO)                   \
    COUNT(cycles, "cycles")                                             \
    COUNT(committedInsts, "committed_insts")                            \
    COUNT(committedBranches, "committed_branches")                      \
    COUNT(committedCondBranches, "committed_cond_branches")             \
    COUNT(mispredicts, "mispredicts")                                   \
    COUNT(condMispredicts, "cond_mispredicts")                          \
    /* Divergences by branch type (indexed by BranchType). */           \
    BY_TYPE(mispredictsByType, "mispredicts_by_type", "mispredicts_type_") \
    COUNT(fetchedCorrect, "fetched_correct")                            \
    COUNT(fetchedWrong, "fetched_wrong")                                \
    /* Cycles where the engine had a full-width opportunity. */         \
    COUNT(fetchCyclesAttempted, "fetch_cycles_attempted")               \
    /* Correct-path instructions delivered in those cycles. */          \
    COUNT(fetchOppInsts, "fetch_opp_insts")                             \
    RATE(l1iMissRate, "l1i_miss_rate")                                  \
    RATE(l1dMissRate, "l1d_miss_rate")                                  \
    RATIO(ipc, "ipc")                                                   \
    RATIO(fetchIpc, "fetch_ipc")                                        \
    RATIO(mispredictRate, "mispredict_rate")

/** Results of a simulation run. */
struct SimStats
{
    /** Arity of mispredictsByType (one slot per BranchType). */
    static constexpr std::size_t kNumBranchTypes = 7;

#define SFETCH_COUNT(m, name) std::uint64_t m = 0;
#define SFETCH_BY_TYPE(m, name, csv) std::uint64_t m[kNumBranchTypes] = {};
#define SFETCH_RATE(m, name) double m = 0.0;
#define SFETCH_RATIO(m, name)
    SFETCH_SIM_STATS(SFETCH_COUNT, SFETCH_BY_TYPE, SFETCH_RATE, SFETCH_RATIO)
#undef SFETCH_COUNT
#undef SFETCH_BY_TYPE
#undef SFETCH_RATE
#undef SFETCH_RATIO

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

/** One SFETCH_SIM_STATS entry as data; the member gives the kind. */
struct SimStatField
{
    enum class Kind { Count, ByType, Rate, Ratio };
    using ByTypeArray = std::uint64_t[SimStats::kNumBranchTypes];

    constexpr SimStatField(const char *n, std::uint64_t SimStats::*m)
        : kind(Kind::Count), name(n), count(m) {}
    constexpr SimStatField(const char *n, const char *prefix,
                           ByTypeArray SimStats::*m)
        : kind(Kind::ByType), name(n), csvPrefix(prefix),
          arity(SimStats::kNumBranchTypes), byType(m) {}
    constexpr SimStatField(const char *n, double SimStats::*m)
        : kind(Kind::Rate), name(n), rate(m) {}
    constexpr SimStatField(const char *n, double (SimStats::*m)() const)
        : kind(Kind::Ratio), name(n), ratio(m) {}

    Kind kind;
    const char *name; //!< JSON key; also the CSV column unless ByType
    const char *csvPrefix = nullptr; //!< ByType: CSV columns prefix<i>
    std::size_t arity = 1; //!< values held: one per BranchType, or one
    std::uint64_t SimStats::*count = nullptr;
    ByTypeArray SimStats::*byType = nullptr;
    double SimStats::*rate = nullptr;
    double (SimStats::*ratio)() const = nullptr;

    /** Held in SimStats (compared and read back), not derived. */
    bool stored() const { return kind != Kind::Ratio; }

    /** Value @p i of a Count or ByType field of @p st. */
    template <class Stats>
    auto &
    u64(Stats &st, std::size_t i) const
    {
        return kind == Kind::ByType ? (st.*byType)[i] : st.*count;
    }
};

#define SFETCH_FIELD(m, ...) SimStatField(__VA_ARGS__, &SimStats::m),
inline constexpr SimStatField kSimStatFields[] = {SFETCH_SIM_STATS(
    SFETCH_FIELD, SFETCH_FIELD, SFETCH_FIELD, SFETCH_FIELD)};
#undef SFETCH_FIELD

/**
 * Exact equality over every stored field and engine stat; the sweep
 * driver's parallel-equals-serial guarantee is stated in terms of
 * this comparison.
 */
inline bool
operator==(const SimStats &a, const SimStats &b)
{
    for (const SimStatField &f : kSimStatFields)
        for (std::size_t i = 0; f.stored() && i < f.arity; ++i)
            if (f.kind == SimStatField::Kind::Rate
                    ? a.*f.rate != b.*f.rate
                    : f.u64(a, i) != f.u64(b, i))
                return false;
    return a.engine == b.engine;
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
     * @param arena Optional shared pre-decoded committed path (not
     *        owned; must outlive the processor and have been built
     *        from the same image/model/@p seed). When set, the run's
     *        window is refilled from it instead of from a private
     *        decoder of the live generator — bit-identical, with no
     *        workload-model work per instruction. An arena decoded
     *        from another image or with another seed is refused with
     *        std::invalid_argument.
     */
    Processor(const ProcessorConfig &cfg, FetchEngine *engine,
              const CodeImage &image, const WorkloadModel &model,
              MemoryHierarchy *mem, std::uint64_t seed,
              const OracleArena *arena = nullptr);

    /**
     * Simulate until @p insts instructions have committed (after
     * first running @p warmup_insts with statistics discarded).
     * @return measured statistics.
     */
    SimStats run(InstCount insts, InstCount warmup_insts = 0);

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
     * window when it runs short. Once a shared arena has run out, the
     * window's end is where the committed path ends.
     */
    void ensureFetchWindow();
    /** Fetch ran past the end of the shared arena's path. */
    [[noreturn]] void throwPathExhausted() const;

    void commitStep(SimStats &st);
    void dispatchStep(SimStats &st);
    /** Dispatch committed position @p pos into a fresh ROB entry. */
    void dispatchOne(std::uint64_t pos);
    void prefetchData();
    void redirectStep();
    void fetchStep(SimStats &st);
    /** Bundle-at-once oracle verify + ingest. */
    void verifyBundle(SimStats &st, bool full_opportunity);
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
     * lastWasBranch_ says whether the newest correct-path fetch was
     * a branch, i.e. the one prev_ holds.
     */
    bool lastWasBranch_ = false;
    PrevBranch prev_;

    InstCount totalCommitted_ = 0;
    Cycle silentFetchCycles_ = 0;

    bool measuring_ = false;

    /** Commit cap for exactInstStop; no bound when disabled. */
    InstCount stopAt_ = ~InstCount(0);
};

} // namespace sfetch

#endif // SFETCH_PIPELINE_PROCESSOR_HH
