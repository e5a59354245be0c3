/**
 * @file
 * The pre-decoded committed path: how the oracle is stored, and the
 * one form in which the processor reads it.
 *
 * One decode loop (OracleDecoder) turns an OracleStream — the live
 * generator or a recorded trace — into the stream encoding, the
 * paper's fetch unit: a run of sequential instructions that ends in
 * a taken branch needs nothing per instruction but its meta byte.
 *
 *   - meta[i]     u8: InstClass (bits 0-2), BranchType (bits 3-5),
 *                 taken (bit 6).
 *   - target[t]   u32 offset from the image base of the successor of
 *                 the t-th taken instruction. Every other instruction
 *                 is followed by pc + kInstBytes (the decoder checks
 *                 it), and the first one sits at the image's entry.
 *   - dataOff[k]  u32 offset from kDataRegionBase of the k-th data
 *                 access: the back end's synthetic address stream is
 *                 part of the workload model (independent of the
 *                 fetch engine), so it is decoded alongside the
 *                 control path.
 *
 * An OracleArena holds a whole run in this form, decoded once and
 * shared read-only by every sweep point of one (bench, layout, run
 * length) — gem5-style decode-once / simulate-many. A run reads the
 * path through its private OracleWindow: a constant-size expanded
 * view (a u32 pc offset per instruction, plus its successor, next to
 * the meta bytes and data offsets as they are) that one expansion
 * routine refills as the run advances, from the shared arena or from
 * a small chunk a private decoder fills. Either way the processor sees
 * an OracleView, so one pipeline serves every run.
 *
 * Memory cost: an arena holds 1 byte per committed instruction plus
 * 4 bytes per taken instruction and 4 per load/store, sized exactly.
 * The suite runs 0.016-0.16 taken instructions and 0.12-0.40 memory
 * operations per instruction, so 1.8-2.9 bytes per instruction: ~6 MB
 * for a full paper-scale run (2M + 0.3M warmup). A window costs 9
 * bytes per entry, 4K entries per run, whatever the run length.
 *
 * Bit-identity: every form is what the live OracleStream produced,
 * so arena replay, windowed generation and windowed trace replay are
 * bit-identical by construction; the golden stats and the window
 * invariance suite pin this for every engine.
 */

#ifndef SFETCH_LAYOUT_ORACLE_ARENA_HH
#define SFETCH_LAYOUT_ORACLE_ARENA_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "layout/oracle.hh"

namespace sfetch
{

/**
 * A priori per-instruction estimate of an arena's heap cost, for
 * admission decisions made *before* any decode. sfetchd's memory
 * governor budgets `insts * kArenaBytesPerInstEstimate` per decode.
 *
 * It is 12, well above the ~2.5 B/inst the stream encoding measures,
 * because the governor budgets arenas only: the placed workloads
 * they are decoded from are not budgeted, and take up to ~3.3 MB
 * each (~20 MB for a churn of 24 distinct programs). The governor
 * evicts whole workloads only while arenas overflow the budget, so
 * an estimate lowered to the format's cost alone would let that
 * workload memory pile up unchecked.
 */
constexpr std::size_t kArenaBytesPerInstEstimate = 12;

/** Meta-byte bits holding the branch type (nonzero for branches). */
constexpr std::uint8_t kMetaBranchBits = 0x38;
/** Meta-byte bit set on taken branches (they carry a target). */
constexpr std::uint8_t kMetaTakenBit = 0x40;

/**
 * Read-only view of committed-path positions [first, last) in the
 * expanded form a run reads (see file comment). Positions are
 * absolute indices into the run's committed path; the arrays start
 * at @c first.
 */
struct OracleView
{
    Addr base = 0;                        //!< image base address
    const std::uint32_t *pcOff = nullptr; //!< [first, last] (+successor)
    const std::uint8_t *meta = nullptr;   //!< [first, last)
    /** [dataFirst, dataLast), offsets from kDataRegionBase. */
    const std::uint32_t *dataOff = nullptr;
    std::uint64_t first = 0, last = 0;
    std::uint64_t dataFirst = 0, dataLast = 0;
};

/** A committed path in the stream encoding (see file comment). */
struct OracleStreams
{
    std::vector<std::uint8_t> meta;     //!< one per instruction
    std::vector<std::uint32_t> target;  //!< one per taken instruction
    std::vector<std::uint32_t> dataOff; //!< one per load/store
};

/**
 * The one decode loop: turns an OracleStream (live, or replaying a
 * recorded trace) into the stream encoding and draws one data
 * address per load/store. Successive decode() calls continue the
 * same path.
 */
class OracleDecoder
{
  public:
    OracleDecoder(const CodeImage &image, const WorkloadModel &model,
                  std::uint64_t seed,
                  const RecordedTrace *replay = nullptr);

    /**
     * Append up to @p n instructions to @p out. Returns the count,
     * which falls short of @p n only once a recorded trace has run
     * out. Throws std::logic_error if the path cannot be encoded: an
     * instruction that is not its predecessor's successor, a
     * successor outside the image's u32 offset range, an untaken
     * instruction not followed by pc + kInstBytes, or a data address
     * outside the u32 offset range above kDataRegionBase.
     */
    std::size_t decode(OracleStreams &out, std::size_t n);

  private:
    OracleStream path_;
    DataAddressStream data_;
    Addr base_;
    Addr next_; //!< pc the next decoded instruction must have
};

/** A whole run's committed path, decoded once and shared. */
class OracleArena
{
  public:
    /**
     * Decode @p insts committed instructions of (@p image, @p model,
     * @p seed) by running the live generator once. The caller sizes
     * @p insts with enough margin for the processor's fetch-ahead
     * (see kFetchAheadMargin in sim/experiment.hh).
     */
    OracleArena(const CodeImage &image, const WorkloadModel &model,
                std::uint64_t seed, std::uint64_t insts);

    /** Generation seed the committed path was decoded with. */
    std::uint64_t seed() const { return seed_; }

    /**
     * The placed binary the path was decoded from. Replay is only
     * meaningful against this exact image (a base-layout arena
     * replayed on the optimized image would yield silently wrong
     * PCs) — runOn() enforces identity.
     */
    const CodeImage *image() const { return image_; }

    /** Number of replayable instructions. */
    std::uint64_t size() const { return streams_.meta.size(); }

    /** Number of pre-generated data-access addresses. */
    std::uint64_t dataCount() const { return streams_.dataOff.size(); }

    /** The decoded path, read through an OracleWindow. */
    const OracleStreams &streams() const { return streams_; }

    /** Approximate heap footprint in bytes. */
    std::size_t bytes() const;

    /**
     * Process-wide sum of bytes() over every OracleArena currently
     * alive, whichever cache or caller holds it (maintained by
     * construction/destruction). This is the ground truth sfetchd's
     * `stats` verb reports against the memory budget: cache-level
     * accounting can miss arenas kept alive by outstanding
     * shared_ptrs after eviction, this counter cannot.
     */
    static std::size_t liveBytes();

    ~OracleArena();
    OracleArena(const OracleArena &) = delete;
    OracleArena &operator=(const OracleArena &) = delete;

  private:
    /** bytes() at registration time, subtracted by the destructor. */
    std::size_t registeredBytes_ = 0;

    const CodeImage *image_ = nullptr;
    std::uint64_t seed_ = 0;
    OracleStreams streams_;
};

/**
 * A run's private committed-path window of constant capacity, kept
 * full as the run advances by expanding the stream encoding into it.
 * Its heap cost is fixed at construction, whatever the run length.
 */
class OracleWindow
{
  public:
    /**
     * Fill from a private decoder of (@p image, @p model, @p seed),
     * or of @p replay when non-null (which must outlive the window).
     */
    OracleWindow(const CodeImage &image, const WorkloadModel &model,
                 std::uint64_t seed, const RecordedTrace *replay,
                 std::size_t capacity);

    /** Fill from @p arena, which must outlive the window. */
    OracleWindow(const OracleArena &arena, std::size_t capacity);

    const OracleView &view() const { return view_; }

    /**
     * Drop positions before @p keep_from and data accesses before
     * @p keep_data_from, move the rest to the front, and expand until
     * the window is full again. Returns false when nothing new could
     * be expanded (the arena or recorded trace has run out).
     */
    bool refill(std::uint64_t keep_from, std::uint64_t keep_data_from);

  private:
    /** Where the next expansion starts in a stream-encoded path. */
    struct Cursor
    {
        std::size_t inst = 0, taken = 0, data = 0;
    };

    OracleWindow(const CodeImage &image, std::size_t capacity);

    /**
     * The one expansion routine: append @p n instructions of @p src
     * from @p at on, and advance @p at past them.
     */
    void expand(const OracleStreams &src, Cursor &at, std::size_t n);

    /** Private source; empty when the window reads an arena. */
    std::optional<OracleDecoder> decoder_;
    /** Decoder output, expanded and cleared chunk by chunk. */
    OracleStreams chunk_;
    /** Shared source; null when the window has a decoder. */
    const OracleArena *arena_ = nullptr;
    Cursor arenaAt_;

    std::size_t capacity_;
    std::vector<std::uint32_t> pcOff_; //!< capacity_+1 entries
    std::vector<std::uint8_t> meta_;
    /** Reserved once at the capacity; never reallocates. */
    std::vector<std::uint32_t> dataOff_;
    OracleView view_;
};

} // namespace sfetch

#endif // SFETCH_LAYOUT_ORACLE_ARENA_HH
