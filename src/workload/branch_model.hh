/**
 * @file
 * Dynamic branch behaviour models.
 *
 * A Program fixes the static CFG; a WorkloadModel decides, at trace
 * generation time, which successor every executed branch follows. The
 * models are designed so the synthetic traces exhibit the properties
 * that matter to fetch architectures and branch predictors:
 *
 *  - loop back edges with (noisy) trip counts => periodic patterns
 *    that history predictors capture and bimodal ones partly miss;
 *  - biased branches (iid Bernoulli) => a per-branch accuracy floor;
 *  - history-correlated branches whose outcome is a deterministic
 *    pseudo-random function of recent path history => learnable by
 *    gshare/perceptron/2bcgskew-class predictors;
 *  - indirect jumps with weighted, optionally history-correlated,
 *    target selection.
 *
 * Outcomes are expressed in *semantic* terms ("primary" = CFG target
 * successor, "secondary" = CFG fallthrough successor) so the dynamic
 * path is invariant under code layout. Whether a transition is a
 * taken or not-taken branch is decided later by the CodeImage.
 */

#ifndef SFETCH_WORKLOAD_BRANCH_MODEL_HH
#define SFETCH_WORKLOAD_BRANCH_MODEL_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace sfetch
{

/** Behaviour of one static conditional branch. */
struct CondModel
{
    enum class Kind : std::uint8_t
    {
        Loop,       //!< back edge: primary for trips-1 times, then exit
        Biased,     //!< iid Bernoulli(pPrimary)
        Correlated, //!< deterministic function of path history + noise
        /**
         * Locally-stable behaviour: the outcome holds for a long run
         * of instances, then flips (program phases, slowly-varying
         * data). The run lengths are drawn so the duty cycle matches
         * pPrimary. This dominates real integer codes and is what
         * makes coarse-grained predictors competitive.
         */
        Phased,
    };

    Kind kind = Kind::Biased;

    /** Probability of the primary (CFG target) successor. */
    double pPrimary = 0.5;

    /** Loop: mean trip count (>= 1). */
    double meanTrips = 8.0;

    /** Loop: +/- relative jitter on the trip count draw. */
    double tripJitter = 0.25;

    /** Correlated: private seed of the history hash function. */
    std::uint64_t seed = 0;

    /** Correlated: probability the outcome ignores history (noise). */
    double noise = 0.05;

    /** Correlated: number of history bits the function depends on. */
    unsigned historyBits = 12;

    /**
     * Correlated: read the recent indirect-case history instead of
     * the conditional-outcome history. Such correlation (typical of
     * interpreter dispatch and data-structure-kind tests) is visible
     * to path-based predictors but not to direction histories.
     */
    bool onCases = false;

    /** Phased: mean run length of a phase, in branch instances. */
    double runLenMean = 120.0;

    // ---- dynamic state (reset per run) ----
    std::uint32_t remainingTrips = 0;
    bool phasePrimary = false;
    std::uint32_t phaseLeft = 0;
};

/** Behaviour of one static indirect jump. */
struct IndirectModel
{
    /** Weights aligned with Program::indirectTargets(). */
    std::vector<double> weights;

    /** Probability the choice is history-correlated vs iid. */
    double correlation = 0.6;

    std::uint64_t seed = 0;
};

/** Parameters of the synthetic data-access stream. */
struct DataModel
{
    Addr workingSetBytes = 1u << 20;
    /** Fraction of accesses that walk sequentially. */
    double streamFraction = 0.5;
    /** Fraction of accesses to a small hot region (stack-like). */
    double hotFraction = 0.3;
    Addr hotBytes = 32u << 10;
    std::uint64_t seed = 1;
};

/**
 * Open-addressing map from a modelled branch's block id to its slot
 * in a model table. Sized by the number of modelled branches (a
 * power of two at most half full), not by the program's block
 * count, and read in O(1) on the trace generator's path.
 */
class BranchIndex
{
  public:
    static constexpr std::uint32_t kAbsent = 0xffffffffu;

    /** Slot of block @p id, or kAbsent. */
    std::uint32_t
    find(BlockId id) const
    {
        if (entries_.empty())
            return kAbsent;
        const std::size_t mask = entries_.size() - 1;
        for (std::size_t i = home(id);; i = (i + 1) & mask) {
            if (entries_[i].block == id)
                return entries_[i].slot;
            if (entries_[i].block == kNoBlock)
                return kAbsent;
        }
    }

    /** Map @p id (not yet present) to @p slot. */
    void insert(BlockId id, std::uint32_t slot);

    /** Heap bytes of the table, by capacity. */
    std::size_t
    bytes() const
    {
        return entries_.capacity() * sizeof(Entry);
    }

  private:
    struct Entry
    {
        BlockId block = kNoBlock;
        std::uint32_t slot = 0;
    };

    std::size_t
    home(BlockId id) const
    {
        return std::uint32_t(id * 0x9e3779b1u) >> shift_;
    }

    std::vector<Entry> entries_;
    std::size_t size_ = 0;
    unsigned shift_ = 32; //!< 32 - log2(entries_.size())
};

/**
 * Per-program dynamic behaviour: conditional and indirect models,
 * each in a table with one slot per modelled branch, data access
 * parameters, and the shared semantic outcome history used by
 * correlated branches.
 *
 * The model is copyable; each TraceGenerator owns a private copy so
 * profiling runs do not disturb measurement runs.
 */
class WorkloadModel
{
  public:
    WorkloadModel() = default;

    /** Model the conditional ending block @p id (replacing any). */
    void setCond(BlockId id, CondModel m);

    /** Model the indirect jump ending block @p id (replacing any). */
    void setIndirect(BlockId id, IndirectModel m);

    void setData(DataModel m) { data_ = m; }
    const DataModel &data() const { return data_; }

    bool
    hasCond(BlockId id) const
    {
        return condIndex_.find(id) != BranchIndex::kAbsent;
    }

    const CondModel &
    cond(BlockId id) const
    {
        assert(hasCond(id));
        return cond_[condIndex_.find(id)];
    }

    /**
     * Decide the outcome of the conditional branch terminating block
     * @p id. @return true for the primary (CFG target) successor.
     * Updates the shared semantic history.
     */
    bool choosePrimary(BlockId id, Pcg32 &rng);

    /**
     * Pick the successor of the indirect jump terminating block
     * @p id among its @p targets (Program::indirectTargets()).
     */
    BlockId chooseIndirect(BlockId id, BlockIdSpan targets, Pcg32 &rng);

    /** Reset all per-run dynamic state. */
    void reset();

    /** Current semantic outcome history (newest bit = LSB). */
    std::uint64_t history() const { return history_; }

    std::size_t numCondModels() const { return cond_.size(); }
    std::size_t numIndirectModels() const { return indirect_.size(); }

    /** Release the tables' spare capacity once building is done. */
    void shrinkToFit();

    /** Heap bytes of the model's tables, by capacity. */
    std::size_t bytes() const;

  private:
    std::vector<CondModel> cond_;
    BranchIndex condIndex_;
    std::vector<IndirectModel> indirect_;
    BranchIndex indirectIndex_;
    DataModel data_;
    std::uint64_t history_ = 0;
    std::uint64_t case_history_ = 0;
};

} // namespace sfetch

#endif // SFETCH_WORKLOAD_BRANCH_MODEL_HH
