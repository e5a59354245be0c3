#include "layout/oracle_arena.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "util/fault_inject.hh"
#include "util/simd.hh"

namespace sfetch
{

namespace
{

/** Process-wide resident-arena byte counter (see liveBytes()). */
std::atomic<std::size_t> g_liveArenaBytes{0};

/** Instructions a window's private decoder encodes per chunk. */
constexpr std::size_t kChunkInsts = 1024;

/** True for the meta byte of a load or a store. */
bool
isMemMeta(std::uint8_t mb)
{
    static_assert(static_cast<unsigned>(InstClass::Load) == 2 &&
                      static_cast<unsigned>(InstClass::Store) == 3,
                  "loads and stores share the class bits 01x");
    return (mb & 0x06) == 0x02;
}

/** Largest offset the stream encoding stores. */
constexpr Addr kMaxOffset = 0xffffffffULL;

[[noreturn]] void
throwUnencodable(const char *what, std::uint64_t inst)
{
    throw std::logic_error(std::string("OracleDecoder: ") + what +
                           " at instruction " + std::to_string(inst));
}

} // namespace

OracleDecoder::OracleDecoder(const CodeImage &image,
                             const WorkloadModel &model,
                             std::uint64_t seed,
                             const RecordedTrace *replay)
    : path_(image, model, seed, replay),
      data_(model.data(), seed ^ kDataStreamSeedSalt),
      base_(image.baseAddr()), next_(image.entryAddr())
{
}

std::size_t
OracleDecoder::decode(OracleStreams &out, std::size_t n)
{
    const std::size_t at = out.meta.size();
    out.meta.resize(at + n);
    std::uint8_t *meta = out.meta.data() + at;
    OracleInst oi;
    std::size_t i = 0;
    std::size_t accesses = 0;
    for (; i < n && path_.tryNext(oi); ++i) {
        // Only taken instructions store their successor, so the
        // committed successor of every instruction must be the next
        // one decoded, and an untaken one's must be pc + 4; every
        // successor (hence every pc) must fit a u32 offset from the
        // image base. All are invariants of OracleStream: check them
        // while decoding rather than corrupting every replay.
        const Addr succ = oi.nextPc - base_;
        if (oi.pc != next_ || succ > kMaxOffset ||
            (!oi.taken && oi.nextPc != oi.pc + kInstBytes)) {
            throwUnencodable("committed path violates the "
                             "stream-encoding invariants",
                             path_.instCount() - 1);
        }
        next_ = oi.nextPc;

        const std::uint8_t mb = static_cast<std::uint8_t>(
            (static_cast<unsigned>(oi.cls) & 0x07) |
            ((static_cast<unsigned>(oi.btype) & 0x07) << 3) |
            (oi.taken ? kMetaTakenBit : 0u));
        meta[i] = mb;
        if (oi.taken)
            out.target.push_back(static_cast<std::uint32_t>(succ));
        accesses += isMemMeta(mb);
    }
    out.meta.resize(at + i);

    // The address stream does not depend on the control path, only
    // on how many loads and stores it holds: drawing those in one
    // loop keeps its data-dependent branches out of the loop above
    // (interleaved, they cost a third of the decode time on thrash).
    for (; accesses > 0; --accesses) {
        const Addr off = data_.next() - kDataRegionBase;
        if (off > kMaxOffset)
            throwUnencodable("data address outside the u32 offset "
                             "range above kDataRegionBase",
                             path_.instCount() - 1);
        out.dataOff.push_back(static_cast<std::uint32_t>(off));
    }
    return i;
}

std::size_t
OracleArena::liveBytes()
{
    return g_liveArenaBytes.load(std::memory_order_relaxed);
}

OracleArena::~OracleArena()
{
    g_liveArenaBytes.fetch_sub(registeredBytes_,
                               std::memory_order_relaxed);
}

OracleArena::OracleArena(const CodeImage &image,
                         const WorkloadModel &model,
                         std::uint64_t seed, std::uint64_t insts)
    : image_(&image), seed_(seed)
{
    // Injection point standing in for the allocations below: a
    // decode that cannot get its memory must surface as bad_alloc
    // (which the sweep driver degrades to a private window), never
    // as a crash or a partial arena.
    if (SFETCH_FAULT("arena.alloc"))
        throw std::bad_alloc();
    // Reserve the upper bound so the decode never reallocates (pages
    // the decode does not reach are never touched), then copy the
    // targets and data offsets down to their exact sizes.
    streams_.meta.reserve(insts);
    streams_.target.reserve(insts);
    streams_.dataOff.reserve(insts);

    // The live generator never runs out, so this fills every entry.
    OracleDecoder(image, model, seed).decode(streams_, insts);
    streams_.target.shrink_to_fit();
    streams_.dataOff.shrink_to_fit();

    registeredBytes_ = bytes();
    g_liveArenaBytes.fetch_add(registeredBytes_,
                               std::memory_order_relaxed);
}

std::size_t
OracleArena::bytes() const
{
    return streams_.meta.capacity() * sizeof(std::uint8_t) +
        streams_.target.capacity() * sizeof(std::uint32_t) +
        streams_.dataOff.capacity() * sizeof(std::uint32_t);
}

OracleWindow::OracleWindow(const CodeImage &image,
                           std::size_t capacity)
    : capacity_(capacity), pcOff_(capacity + 1), meta_(capacity)
{
    // Data accesses never outnumber the instructions held, so this
    // one reservation covers every refill.
    dataOff_.reserve(capacity);
    view_.base = image.baseAddr();
    view_.pcOff = pcOff_.data();
    view_.meta = meta_.data();
    // The successor entry of an empty window: where the path starts.
    pcOff_[0] = static_cast<std::uint32_t>(image.entryAddr() -
                                           image.baseAddr());
}

OracleWindow::OracleWindow(const CodeImage &image,
                           const WorkloadModel &model,
                           std::uint64_t seed,
                           const RecordedTrace *replay,
                           std::size_t capacity)
    : OracleWindow(image, capacity)
{
    decoder_.emplace(image, model, seed, replay);
    chunk_.meta.reserve(kChunkInsts);
    chunk_.target.reserve(kChunkInsts);
    chunk_.dataOff.reserve(kChunkInsts);
    refill(0, 0);
}

OracleWindow::OracleWindow(const OracleArena &arena,
                           std::size_t capacity)
    : OracleWindow(*arena.image(), capacity)
{
    arena_ = &arena;
    refill(0, 0);
}

void
OracleWindow::expand(const OracleStreams &src, Cursor &at,
                     std::size_t n)
{
    const std::size_t held =
        static_cast<std::size_t>(view_.last - view_.first);
    const std::uint8_t *in = src.meta.data() + at.inst;
    const std::uint32_t *target = src.target.data() + at.taken;
    std::uint32_t *pc = pcOff_.data() + held;
    std::memcpy(meta_.data() + held, in, n);

    // Stream by stream: pcs run sequentially up to each taken
    // instruction, whose successor is the next target. One mask per
    // 32 meta bytes finds the taken ones; pc[0] already holds the
    // successor of the last held instruction.
    std::uint32_t next = pc[0];
    std::size_t taken = 0, i = 0;
    for (std::size_t block = 0; block < n; block += 32) {
        const unsigned m =
            static_cast<unsigned>(std::min<std::size_t>(32, n - block));
        std::uint32_t mask = simd::maskTestU8(in + block, m,
                                              kMetaTakenBit);
        while (mask) {
            const std::size_t j = block + simd::bottomBit(mask);
            mask &= mask - 1;
            for (; i < j; ++i, next += kInstBytes)
                pc[i] = next;
            pc[i++] = next;
            next = target[taken++];
        }
        for (; i < block + m; ++i, next += kInstBytes)
            pc[i] = next;
    }
    pc[n] = next;

    std::size_t accesses = 0;
    for (std::size_t k = 0; k < n; ++k)
        accesses += isMemMeta(in[k]);
    const std::uint32_t *off = src.dataOff.data() + at.data;
    dataOff_.insert(dataOff_.end(), off, off + accesses);

    at.inst += n;
    at.taken += taken;
    at.data += accesses;
    view_.last += n;
}

bool
OracleWindow::refill(std::uint64_t keep_from,
                     std::uint64_t keep_data_from)
{
    const std::size_t drop =
        static_cast<std::size_t>(keep_from - view_.first);
    const std::size_t kept =
        static_cast<std::size_t>(view_.last - keep_from);
    // The successor entry moves along with the kept instructions.
    std::memmove(pcOff_.data(), pcOff_.data() + drop,
                 (kept + 1) * sizeof(std::uint32_t));
    std::memmove(meta_.data(), meta_.data() + drop, kept);
    dataOff_.erase(dataOff_.begin(),
                   dataOff_.begin() +
                       static_cast<std::ptrdiff_t>(keep_data_from -
                                                   view_.dataFirst));
    view_.first = keep_from;
    view_.dataFirst = keep_data_from;

    const std::uint64_t before = view_.last;
    std::size_t room = capacity_ - kept;
    if (arena_) {
        expand(arena_->streams(), arenaAt_,
               std::min<std::size_t>(room,
                                     arena_->size() - arenaAt_.inst));
    } else {
        while (room > 0) {
            const std::size_t ask = std::min(room, kChunkInsts);
            chunk_.meta.clear();
            chunk_.target.clear();
            chunk_.dataOff.clear();
            const std::size_t got = decoder_->decode(chunk_, ask);
            Cursor at;
            expand(chunk_, at, got);
            room -= got;
            if (got < ask)
                break; // the recorded trace has run out
        }
    }
    view_.dataOff = dataOff_.data();
    view_.dataLast = view_.dataFirst + dataOff_.size();
    return view_.last > before;
}

} // namespace sfetch
