/**
 * @file
 * Experiment harness: builds the machine configurations of Table 2,
 * instantiates any registered fetch architecture over any suite
 * workload (base or optimized layout, any pipe width), runs the
 * simulation, and aggregates suite-level results. All bench binaries
 * and examples go through this API; the engine surface lives in
 * sim/config.hh (SimConfig over the EngineRegistry).
 */

#ifndef SFETCH_SIM_EXPERIMENT_HH
#define SFETCH_SIM_EXPERIMENT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "layout/oracle_arena.hh"
#include "pipeline/processor.hh"
#include "sim/config.hh"
#include "util/stats.hh"
#include "workload/profile.hh"
#include "workload/suite.hh"
#include "workload/workload_registry.hh"

namespace sfetch
{

/**
 * Committed-path margin beyond (insts + warmup) that a pre-decoded
 * arena must cover: the oracle is consumed once per
 * correct-path *fetched* instruction, which runs ahead of commit by
 * at most the fetch buffer, the ROB, and one fetch bundle. 4096
 * covers the largest configuration with an order of magnitude to
 * spare.
 */
constexpr InstCount kFetchAheadMargin = 4096;

/**
 * A priori per-instruction estimate of an arena's heap cost, for
 * admission decisions made *before* any decode: sfetchd's memory
 * governor budgets estimatedArenaBytes() (sim/driver.hh), and a
 * decode in flight counts at this rate in arenaBytesResident().
 *
 * It is 12, well above what the format measures (a control part of
 * at most 0.25 B/inst per layout, plus a data stream of 0.5-1.6
 * B/inst per workload; layout/oracle_arena.hh), because the governor
 * budgets arenas only: the placed workloads they are decoded from are
 * not budgeted (PlacedWorkload::bytes(), sfetchd's
 * `resident_workload_bytes`), and take up to ~1.1 MB each with both
 * layouts placed (6.5 MiB for a churn of 24 distinct programs). The
 * governor evicts whole workloads only while arenas overflow the
 * budget, so an estimate lowered to the format's cost alone would let
 * that workload memory pile up unchecked.
 */
constexpr std::size_t kArenaBytesPerInstEstimate = 12;

/**
 * Length, in blocks, of the `train`-seed profiling run that drives
 * the optimized layout (PlacedWorkload::trainProfile()).
 */
constexpr std::uint64_t kTrainProfileRecords = 400'000;

/**
 * A reusable placed workload: program + behaviour + both layouts.
 * Built once per benchmark — normally via WorkloadCache — and shared
 * read-only across runs. Construction synthesizes the program; each
 * layout is placed on its first image() call (the optimized one
 * after a train-input profiling run whose profile is then dropped),
 * so a workload only ever read at one layout never pays for the
 * other. All accessors are const; concurrent runs on one
 * PlacedWorkload are safe.
 */
class PlacedWorkload
{
  public:
    /**
     * @param bench_spec A suite preset name (gzip, ...) or a
     * workload-registry spec `family[:key=v,...]`; see
     * canonicalBenchSpec(). name() is the canonical form.
     */
    explicit PlacedWorkload(const std::string &bench_spec);

    const std::string &name() const { return name_; }
    const Program &program() const { return work_.program; }
    const WorkloadModel &model() const { return work_.model; }

    /**
     * The program placed in the baseline or the optimized order,
     * placed on the first call for that layout. Thread-safe:
     * concurrent first calls place once and all get that image.
     */
    const CodeImage &image(bool optimized) const;

    /** True once the layout's image has been placed. */
    bool placed(bool optimized) const;

    /**
     * The train-input edge profile the optimized layout is built
     * from: kTrainProfileRecords blocks under kTrainSeed, collected
     * afresh on each call (the workload keeps none).
     */
    EdgeProfile trainProfile() const;

    /**
     * Bytes the workload holds outside its arenas, by capacity: the
     * object itself, its program, its model and each image placed so
     * far. Reported (sfetchd's `resident_workload_bytes`), not
     * budgeted.
     */
    std::size_t bytes() const;

    /**
     * Shared pre-decoded committed path for @p total_insts
     * instructions (measured + warmup + kFetchAheadMargin) on the
     * given layout, decoded with the `ref` seed every runOn() uses.
     * Built lazily, once, and cached per layout: concurrent callers
     * and later sweeps share one immutable arena. A request longer
     * than the cached arena rebuilds (the longer arena replaces the
     * shorter; outstanding references stay valid through the
     * shared_ptr). Both layouts' arenas read one data stream, drawn
     * once to the longer one's access count. Thread-safe: duplicate
     * decodes of one layout wait for the first, while every other
     * arena query — the sibling layout's decode included — proceeds
     * during a decode.
     */
    std::shared_ptr<const OracleArena>
    arena(bool optimized, InstCount total_insts) const;

    /**
     * Process-wide count of the arenas arena() has decoded, and
     * their summed decode wall time in ns, over every workload: what
     * sfetchd's `stats` reports as `arena_decodes` and
     * `arena_decode_ms`.
     */
    static std::uint64_t arenaDecodes();
    static std::uint64_t arenaDecodeNanos();

    /**
     * The cached arena for the layout when one exists and already
     * covers @p total_insts; null otherwise (never builds).
     */
    std::shared_ptr<const OracleArena>
    cachedArena(bool optimized, InstCount total_insts) const;

    /**
     * Bytes held by this workload's cached per-layout arenas — the
     * budgetable share of its footprint: each cached layout's
     * control part (at most 0.25 B/inst) plus, once, the data stream
     * they share (0.5-1.6 B/inst); the workload itself (bytes()) is
     * not counted — plus each decode in flight at
     * kArenaBytesPerInstEstimate per instruction. Feeds
     * WorkloadCache::bytesResident() and sfetchd's memory governor.
     */
    std::size_t arenaBytesResident() const;

    /**
     * Drop the cached arena references, and those of decodes in
     * flight once they land. Outstanding shared_ptrs (e.g. a sweep
     * currently replaying) keep their arenas alive and valid; the
     * memory is reclaimed when the last reference dies, and later
     * arena() calls decode afresh.
     */
    void dropArenas() const;

    /**
     * Drop every cached arena this slot alone owns — an arena some
     * replay still holds stays, and so does the data stream while any
     * arena reads it. Returns what that takes off
     * arenaBytesResident(): the shed arenas' control parts, plus the
     * data stream once no cached arena is left to read it. A decode
     * in flight is untouched. Later arena() calls decode afresh;
     * WorkloadCache::evictToBudget() sheds workloads this way before
     * it erases any.
     */
    std::size_t shedArenas() const;

  private:
    /** arenaBytesResident() with arenaMu_ already held. */
    std::size_t arenaBytesLocked() const;

    std::string name_;
    SyntheticWorkload work_;

    /** Per-layout images ([0]=base), each placed once on first use. */
    mutable std::once_flag placeOnce_[2];
    mutable std::unique_ptr<const CodeImage> images_[2];
    mutable std::atomic<bool> placed_[2] = {false, false};

    /**
     * Lazily-built per-layout committed-path arenas ([0]=base).
     * buildMu_ serializes the decodes of one layout; arenaMu_ guards
     * only the slots, counts and stream handle, never a decode.
     */
    mutable std::mutex buildMu_[2];
    mutable std::mutex arenaMu_;
    mutable std::shared_ptr<const OracleArena> arenas_[2];
    /**
     * The data stream every live arena of this workload reads. Only
     * the arenas own it, so it dies with the last of them.
     */
    mutable std::weak_ptr<DataStream> data_;
    mutable std::uint64_t decoding_[2] = {0, 0}; //!< insts in flight
};

/**
 * Run options for runOn() outside the modelled machine configuration
 * (SimConfig). The one there is, the exact instruction stop, serves
 * the throughput harness.
 */
struct RunTuning
{
    /**
     * Stop committing exactly at the instruction budget instead of
     * letting the final cycle's full commit overshoot by up to
     * width-1 instructions. committedInsts becomes exact, making
     * Minsts/s denominators comparable across rows; the trimmed
     * instructions commit a cycle later, so this is a (deterministic,
     * equally valid) variant run, not a bit-identical one. Default
     * off: the golden stats pin the overshooting counts.
     */
    bool exactInstStop = false;
};

/**
 * Run one experiment on a prepared workload. When @p arena is
 * non-null the run reads the committed path *and* the data-address
 * stream from that shared pre-decode (which must come from this
 * workload's arena()/cachedArena(), i.e. be decoded with the `ref`
 * seed on the configured layout; the Processor refuses any other
 * with std::invalid_argument); the sweep driver passes one when
 * several points share one (workload, layout, run length).
 * Otherwise the run decodes a private, constant-size window from the
 * live generator as it goes. Both are bit-identical.
 */
SimStats runOn(const PlacedWorkload &work, const SimConfig &cfg,
               const OracleArena *arena = nullptr,
               const RunTuning &tuning = RunTuning{});

/**
 * runOn() over @p image, which may place @p work's program in any
 * order (the layout study's custom orders) and stands in for the
 * layout cfg.optimizedLayout selects.
 */
SimStats runOn(const PlacedWorkload &work, const CodeImage &image,
               const SimConfig &cfg, const OracleArena *arena = nullptr,
               const RunTuning &tuning = RunTuning{});

/**
 * Dynamic fetch-unit sizes, in instructions, along a committed path
 * (Table 1's measured column): the basic block a BTB predicts, the
 * trace a fill unit builds (<= 16 insts, <= 3 conditional branches)
 * and the stream the stream builder commits.
 */
struct FetchUnitSizes
{
    Histogram basicBlock{64};
    Histogram trace{32};
    Histogram stream{256};
};

/** Measure the first @p insts committed instructions of @p work. */
FetchUnitSizes measureFetchUnits(const PlacedWorkload &work,
                                 bool optimized, InstCount insts);

/** Convenience: prepare the workload and run. */
SimStats runBenchmark(const std::string &bench_name,
                      const SimConfig &cfg);

} // namespace sfetch

#endif // SFETCH_SIM_EXPERIMENT_HH
