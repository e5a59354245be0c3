/**
 * @file
 * The pre-decoded committed path: how the oracle is stored, and the
 * one form in which the processor reads it.
 *
 * One decode loop (OracleDecoder) turns the live OracleStream into
 * the stream encoding, the paper's fetch unit: given where a stream
 * starts and which conditionals it falls through, the placed image
 * fixes everything else, so the encoding is the path minus the
 * image. It is the path's control part, one per layout:
 *
 *   - condTaken   one bit per dynamic CondDirect: taken or not.
 *   - target[t]   u32 offset from the image base of the successor of
 *                 the t-th Return or IndirectJump. Every other
 *                 successor is static: pc + kInstBytes after a
 *                 non-branch or an untaken conditional, the image's
 *                 taken target after a taken conditional, a jump or
 *                 a call. The path starts at the image's entry.
 *
 * The back end's synthetic data addresses are part of the workload
 * model, not of the layout: the k-th load or store reads the k-th
 * address of DataAddressStream whatever the fetch engine or code
 * layout (a layout only inserts jumps, never loads or stores). A
 * DataStream holds them as u32 offsets from kDataRegionBase, drawn
 * once per workload and shared by both layouts' arenas.
 *
 * Class and branch type are static per pc: CodeImage::meta() holds
 * them in the meta-byte layout a run reads, and the decoder checks
 * every committed instruction's class, type and static successor
 * against it (a path that disagrees throws std::logic_error).
 *
 * An OracleArena holds a whole run in this form, decoded once and
 * shared read-only by every sweep point of one (bench, layout, run
 * length) — gem5-style decode-once / simulate-many. One RunWalker
 * reads the encoding back over the image, from an arena or from a
 * private decoder it refills a chunk at a time: each step is a
 * sequential run ending at the next committed branch, taken or not,
 * with that CommittedBranch and the run's load and store count. A
 * run's private OracleWindow, Table 1 and the predictor playground
 * all consume it. The window holds one walker as its only path
 * source and expands its runs into a constant-size view (a u32 pc
 * offset per instruction, plus its successor, the meta bytes with the
 * taken bit filled in, and the data offsets) as the run advances;
 * the processor sees that OracleView, so one pipeline serves every
 * run.
 *
 * Memory cost: an arena's control part holds 1 bit per conditional
 * plus 4 bytes per return or indirect jump, sized exactly: the suite
 * runs 0.04-0.17 conditionals and up to 0.06 returns and indirect
 * jumps per instruction, so at most 0.25 bytes per instruction. Its
 * data stream holds 4 bytes per load/store (0.12-0.40 per
 * instruction, so 0.5-1.6 bytes per instruction), rounded up to a
 * whole chunk, once per workload however many layouts read it. A
 * two-layout workload at full paper scale (2M + 0.3M warmup) thus
 * costs at most ~4.8 MB. A window costs 9 bytes per entry, 4K
 * entries per run, whatever the run length. These are measured
 * costs; the estimate admission makes before any decode is declared
 * in sim/experiment.hh.
 *
 * Bit-identity: an arena and a private decoder encode the same path,
 * and one walker reads both, so arena replay and windowed generation
 * are bit-identical by construction; the golden stats and the window
 * invariance suite pin this for every engine.
 */

#ifndef SFETCH_LAYOUT_ORACLE_ARENA_HH
#define SFETCH_LAYOUT_ORACLE_ARENA_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "layout/oracle.hh"

namespace sfetch
{

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

/** A committed path's control part (see file comment). */
struct OracleStreams
{
    std::uint64_t insts = 0;    //!< instructions on the path
    std::uint64_t conds = 0;    //!< conditional branches among them
    std::uint64_t accesses = 0; //!< loads and stores among them
    /** Bit c % 64 of word c / 64 is set when conditional c is taken. */
    std::vector<std::uint64_t> condTaken;
    /** Successor offset of each Return and IndirectJump. */
    std::vector<std::uint32_t> target;

    /** Empty the path, keeping the vectors' capacity. */
    void clear();
};

/**
 * The one decode loop: turns the live OracleStream into the stream
 * encoding's control part and counts the loads and stores it holds.
 * Successive decode() calls continue the same path.
 */
class OracleDecoder
{
  public:
    /** Throws std::logic_error if @p image spans more than the u32
     * offset range. */
    OracleDecoder(const CodeImage &image, const WorkloadModel &model,
                  std::uint64_t seed);

    /**
     * Append the next @p n instructions to @p out. Throws
     * std::logic_error naming the instruction if the path disagrees
     * with the image, each an invariant of OracleStream: an
     * instruction that is not its predecessor's successor or lies
     * outside the image, a class or branch type other than the
     * image's, a successor other than pc + kInstBytes after a
     * non-branch or an untaken conditional, or other than the
     * image's taken target after a direct taken branch.
     */
    void decode(OracleStreams &out, std::size_t n);

  private:
    const CodeImage *image_;
    OracleStream path_;
    Addr base_;
    Addr next_; //!< pc the next decoded instruction must have
};

/**
 * One workload's data-address stream for the run seed @p seed, as
 * u32 offsets from kDataRegionBase: DataAddressStream's sequence,
 * drawn once and shared by every arena that reads it (both layouts'
 * arenas of a PlacedWorkload). It is append-only: it grows a chunk
 * at a time and never moves or frees an offset while it lives, so
 * windows read the offsets their arena covers, without a lock,
 * while another thread's extendTo() appends more.
 */
class DataStream
{
  public:
    /** Offsets per chunk, the unit the stream grows by. */
    static constexpr std::size_t kChunkOffsets = 4 * 1024;

    /** The empty stream of the data model @p model under run seed
     * @p seed (the one an OracleDecoder of that seed runs with). */
    DataStream(const DataModel &model, std::uint64_t seed);

    /** Run seed the stream is drawn for. */
    std::uint64_t seed() const { return seed_; }

    /**
     * Draw until the stream holds at least @p n offsets, and return
     * the chunks holding the first @p n: chunk c holds offsets
     * [c * kChunkOffsets, (c + 1) * kChunkOffsets), valid while the
     * stream lives. Thread-safe: concurrent callers draw each
     * offset once. Throws std::logic_error for an address outside
     * the u32 offset range above kDataRegionBase.
     */
    std::vector<const std::uint32_t *> extendTo(std::uint64_t n);

    /** Offsets drawn so far. */
    std::uint64_t size() const;

    /** Heap footprint: kChunkOffsets * 4 bytes per chunk. */
    std::size_t bytes() const;

    ~DataStream();
    DataStream(const DataStream &) = delete;
    DataStream &operator=(const DataStream &) = delete;

  private:
    std::uint64_t seed_;
    mutable std::mutex mu_;
    DataAddressStream src_;                              //!< by mu_
    std::vector<std::unique_ptr<std::uint32_t[]>> chunks_; //!< by mu_
    std::atomic<std::uint64_t> size_{0};
    std::atomic<std::size_t> chunkCount_{0};
};

/**
 * A whole run's committed path, decoded once and shared: its own
 * control part plus the first dataCount() offsets of a data stream
 * it shares.
 */
class OracleArena
{
  public:
    /**
     * Decode @p insts committed instructions of (@p image, @p model,
     * @p seed) by running the live generator once, reading the data
     * addresses from @p data, which is extended as far as the path
     * needs. @p data must be the stream of (@p model, @p seed);
     * std::invalid_argument if its seed differs. The caller sizes
     * @p insts with enough margin for the processor's fetch-ahead
     * (see kFetchAheadMargin in sim/experiment.hh).
     */
    OracleArena(const CodeImage &image, const WorkloadModel &model,
                std::uint64_t seed, std::uint64_t insts,
                std::shared_ptr<DataStream> data);

    /** As above, with a data stream of its own. */
    OracleArena(const CodeImage &image, const WorkloadModel &model,
                std::uint64_t seed, std::uint64_t insts);

    /** Generation seed the committed path was decoded with. */
    std::uint64_t seed() const { return seed_; }

    /**
     * The placed binary the path was decoded from. Replay is only
     * meaningful against this exact image (a base-layout arena
     * replayed on the optimized image would yield silently wrong
     * PCs) — the Processor constructor enforces identity.
     */
    const CodeImage *image() const { return image_; }

    /** Number of replayable instructions. */
    std::uint64_t size() const { return streams_.insts; }

    /** Number of data accesses on the path. */
    std::uint64_t dataCount() const { return streams_.accesses; }

    /** The decoded control part, read through a RunWalker. */
    const OracleStreams &streams() const { return streams_; }

    /** The data stream this arena reads (possibly shared). */
    const DataStream &dataStream() const { return *data_; }

    /** Data offset @p k, for k < dataCount(). */
    std::uint32_t
    dataOff(std::uint64_t k) const
    {
        return dataChunks_[k / DataStream::kChunkOffsets]
                          [k % DataStream::kChunkOffsets];
    }

    /** Copy data offsets [first, first + n) to @p out. */
    void copyData(std::uint64_t first, std::size_t n,
                  std::uint32_t *out) const;

    /**
     * Heap footprint of the control part: 8 per 64 conditionals
     * (rounded up) plus 4 per return/indirect target.
     */
    std::size_t controlBytes() const;

    /**
     * Heap footprint this arena keeps alive: controlBytes() plus
     * the whole data stream's bytes(), which a sibling layout's
     * arena may share.
     */
    std::size_t bytes() const;

    /**
     * Process-wide sum of the heap footprint of every OracleArena's
     * control part and every DataStream currently alive, each
     * stream counted once however many arenas share it, whichever
     * cache or caller holds them (maintained by construction,
     * growth and destruction). This is the ground truth sfetchd's
     * `stats` verb reports against the memory budget: cache-level
     * accounting can miss arenas kept alive by outstanding
     * shared_ptrs after eviction, this counter cannot.
     */
    static std::size_t liveBytes();

    ~OracleArena();
    OracleArena(const OracleArena &) = delete;
    OracleArena &operator=(const OracleArena &) = delete;

  private:
    /** controlBytes() at registration, subtracted by the destructor. */
    std::size_t registeredBytes_ = 0;

    const CodeImage *image_ = nullptr;
    std::uint64_t seed_ = 0;
    OracleStreams streams_;
    std::shared_ptr<DataStream> data_;
    /** The data stream's chunks covering dataCount() offsets. */
    std::vector<const std::uint32_t *> dataChunks_;
};

/** One step of a RunWalker: @c len instructions at sequential pcs. */
struct PathRun
{
    std::uint32_t start = 0;    //!< first pc, as an offset from the base
    std::uint32_t len = 0;      //!< at least one
    std::uint32_t accesses = 0; //!< loads and stores among them
    /** The branch ending the run; type None when the run was cut (at
     * the caller's limit or a chunk's or the arena's end). */
    CommittedBranch branch;
};

/**
 * The one walk of the committed path (see file comment): only a
 * conditional's bit and a return's or indirect jump's target come
 * from the encoding, the rest from the image's meta bytes.
 */
class RunWalker
{
  public:
    /** Instructions a private decoder encodes per refill. */
    static constexpr std::size_t kChunkInsts = 1024;

    /** Walk @p arena's path; @p arena must outlive the walker. */
    explicit RunWalker(const OracleArena &arena);

    /** Walk (@p image, @p model, @p seed)'s path, privately decoded. */
    RunWalker(const CodeImage &image, const WorkloadModel &model,
              std::uint64_t seed);

    /** Put the next run, of at most @p max > 0 instructions, in @p out;
     * false once the arena has run out (a private decoder never does). */
    bool next(PathRun &out, std::size_t max);

    /** Offset from the image base of the next pc the walk yields. */
    std::uint32_t nextOff() const { return next_; }

    /** The arena walked; null when the decoder is private. */
    const OracleArena *arena() const { return arena_; }

  private:
    RunWalker(const CodeImage &image, const OracleArena *arena);

    const CodeImage *image_;
    const std::uint8_t *meta_; //!< the image's meta bytes
    const OracleArena *arena_;
    std::optional<OracleDecoder> decoder_;
    OracleStreams chunk_; //!< the private decoder's current chunk
    /** Next instruction, conditional and return or indirect target,
     * in the arena's streams or chunk_. */
    std::size_t inst_ = 0, cond_ = 0, target_ = 0;
    std::uint32_t next_;
    /** Branch bits of the 32 meta bytes from index block_, from next_ on. */
    std::size_t block_;
    std::uint32_t mask_;
};

/**
 * A run's private committed-path window of constant capacity, kept
 * full as the run advances by expanding its RunWalker's runs into it.
 * Its heap cost is fixed at construction, whatever the run length.
 */
class OracleWindow
{
  public:
    /** Fill from a private decoder of (@p image, @p model, @p seed). */
    OracleWindow(const CodeImage &image, const WorkloadModel &model,
                 std::uint64_t seed, std::size_t capacity);

    /** Fill from @p arena, which must outlive the window. */
    OracleWindow(const OracleArena &arena, std::size_t capacity);

    const OracleView &view() const { return view_; }

    /**
     * Drop positions before @p keep_from and data accesses before
     * @p keep_data_from, move the rest to the front, and expand until
     * the window is full again. Returns false when nothing new could
     * be expanded (the arena has run out; a private decoder never
     * does).
     */
    bool refill(std::uint64_t keep_from, std::uint64_t keep_data_from);

  private:
    RunWalker walker_; //!< the one path source
    /** A private walker's data addresses; empty for an arena. */
    std::optional<DataAddressStream> data_;
    const CodeImage *image_;

    std::size_t capacity_;
    std::vector<std::uint32_t> pcOff_; //!< capacity_+1 entries
    std::vector<std::uint8_t> meta_;
    /** Reserved once at the capacity; never reallocates. */
    std::vector<std::uint32_t> dataOff_;
    OracleView view_;
};

} // namespace sfetch

#endif // SFETCH_LAYOUT_ORACLE_ARENA_HH
