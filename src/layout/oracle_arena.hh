/**
 * @file
 * The pre-decoded committed path: the only form in which the
 * processor reads the oracle.
 *
 * One decode loop (OracleDecoder) expands an OracleStream — the live
 * generator or a recorded trace — into flat structure-of-arrays
 * storage, packed for sequential streaming:
 *
 *   - pcOff[i]   u32 byte offset of instruction i from the image
 *                base (the committed path never leaves the image);
 *                one entry past the last instruction holds its
 *                successor, so nextPc is pcOff[i+1] — the committed
 *                successor of instruction i *is* the next committed
 *                instruction, so nextPc needs no array of its own.
 *   - meta[i]    u8: InstClass (bits 0-2), BranchType (bits 3-5),
 *                taken (bit 6).
 *   - data[k]    u64 address of the k-th data access: the back
 *                end's synthetic address stream is part of the
 *                workload model (independent of the fetch engine),
 *                so it is decoded alongside the control path.
 *
 * Two owners hold that storage. An OracleArena decodes a whole run
 * once and is shared read-only by every sweep point of one (bench,
 * layout, run length) — gem5-style decode-once / simulate-many. An
 * OracleWindow is a run's private, constant-size window that the
 * same loop refills as the run advances; the arena is simply a
 * window that is never refilled. Both hand the processor an
 * OracleView, so one pipeline serves every run.
 *
 * Memory cost: 5 bytes per committed instruction plus 8 bytes per
 * load/store. An arena reserves data room for half its instructions
 * (the suite's mixes run ~30-40% loads/stores), so it holds 9 bytes
 * per instruction: ~21 MB for a full paper-scale run (2M + 0.3M
 * warmup), built once per (bench, layout, run length). A window
 * costs 13 bytes per entry but has a fixed entry count.
 *
 * Bit-identity: every form is what the live OracleStream produced,
 * so arena replay, windowed generation and windowed trace replay are
 * bit-identical by construction; the golden stats and the window
 * invariance suite pin this for every engine.
 */

#ifndef SFETCH_LAYOUT_ORACLE_ARENA_HH
#define SFETCH_LAYOUT_ORACLE_ARENA_HH

#include <cstdint>
#include <vector>

#include "layout/oracle.hh"

namespace sfetch
{

/**
 * A priori per-instruction estimate of an arena's heap cost, for
 * admission decisions made *before* any decode: 5 B/inst of control
 * path (u32 pc offset + meta byte) plus 8 B per load/store of
 * pre-generated data address; the suite's instruction mixes run
 * ~30-40% memory operations, so 12 B/inst bounds the real cost
 * (9 B/inst measured, data room reserved for half the instructions)
 * from above. sfetchd's memory governor budgets
 * `insts * kArenaBytesPerInstEstimate` per decode.
 */
constexpr std::size_t kArenaBytesPerInstEstimate = 12;

/** Meta-byte bits holding the branch type (nonzero for branches). */
constexpr std::uint8_t kMetaBranchBits = 0x38;

/**
 * Read-only view of committed-path positions [first, last) in the
 * packed form (see file comment). Positions are absolute indices
 * into the run's committed path; the arrays start at @c first.
 */
struct OracleView
{
    Addr base = 0;                        //!< image base address
    const std::uint32_t *pcOff = nullptr; //!< [first, last] (+successor)
    const std::uint8_t *meta = nullptr;   //!< [first, last)
    const Addr *data = nullptr;           //!< [dataFirst, dataLast)
    std::uint64_t first = 0, last = 0;
    std::uint64_t dataFirst = 0, dataLast = 0;
};

/**
 * The one decode loop: expands an OracleStream (live, or replaying
 * a recorded trace) into the packed form and draws one data address
 * per load/store. Successive decode() calls continue the same path.
 */
class OracleDecoder
{
  public:
    OracleDecoder(const CodeImage &image, const WorkloadModel &model,
                  std::uint64_t seed,
                  const RecordedTrace *replay = nullptr);

    /**
     * Decode up to @p n instructions into pcOff[0..n) and meta[0..n),
     * appending one address to @p data per load/store, then write the
     * successor of the last one to pcOff[count]. Returns the count,
     * which falls short of @p n only once a recorded trace has run
     * out.
     */
    std::size_t decode(std::uint32_t *pcOff, std::uint8_t *meta,
                       std::vector<Addr> &data, std::size_t n);

  private:
    OracleStream path_;
    DataAddressStream data_;
    Addr base_;
    Addr next_ = kNoAddr; //!< successor of the last decoded instruction
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
    std::uint64_t size() const { return size_; }

    /** Number of pre-generated data-access addresses. */
    std::uint64_t dataCount() const { return dataAddr_.size(); }

    /** The whole decoded path, positions [0, size()). */
    OracleView view() const;

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
    Addr base_ = 0;
    std::uint64_t seed_ = 0;
    std::uint64_t size_ = 0;
    std::vector<std::uint32_t> pcOff_; //!< size_+1 entries
    std::vector<std::uint8_t> meta_;
    std::vector<Addr> dataAddr_;
};

/**
 * A run's private committed-path window of constant capacity, kept
 * full by the decode loop as the run advances. Its heap cost is fixed
 * at construction, whatever the run length.
 */
class OracleWindow
{
  public:
    /**
     * Decode the first @p capacity instructions of (@p image,
     * @p model, @p seed), or of @p replay when non-null (which must
     * outlive the window).
     */
    OracleWindow(const CodeImage &image, const WorkloadModel &model,
                 std::uint64_t seed, const RecordedTrace *replay,
                 std::size_t capacity);

    const OracleView &view() const { return view_; }

    /**
     * Drop positions before @p keep_from and data accesses before
     * @p keep_data_from, move the rest to the front, and decode until
     * the window is full again. Returns false when nothing new could
     * be decoded (the recorded trace has run out).
     */
    bool refill(std::uint64_t keep_from, std::uint64_t keep_data_from);

  private:
    OracleDecoder decoder_;
    std::size_t capacity_;
    std::vector<std::uint32_t> pcOff_; //!< capacity_+1 entries
    std::vector<std::uint8_t> meta_;
    std::vector<Addr> data_; //!< reserved once; never reallocates
    OracleView view_;
};

} // namespace sfetch

#endif // SFETCH_LAYOUT_ORACLE_ARENA_HH
