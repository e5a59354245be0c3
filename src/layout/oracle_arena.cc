#include "layout/oracle_arena.hh"

#include <atomic>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "util/fault_inject.hh"

namespace sfetch
{

namespace
{

/** Process-wide resident-arena byte counter (see liveBytes()). */
std::atomic<std::size_t> g_liveArenaBytes{0};

} // namespace

OracleDecoder::OracleDecoder(const CodeImage &image,
                             const WorkloadModel &model,
                             std::uint64_t seed,
                             const RecordedTrace *replay)
    : path_(image, model, seed, replay),
      data_(model.data(), seed ^ kDataStreamSeedSalt),
      base_(image.baseAddr())
{
}

std::size_t
OracleDecoder::decode(std::uint32_t *pcOff, std::uint8_t *meta,
                      std::vector<Addr> &data, std::size_t n)
{
    OracleInst oi;
    std::size_t i = 0;
    std::size_t accesses = 0;
    for (; i < n && path_.tryNext(oi); ++i) {
        // The whole committed path lives inside the image, so a u32
        // offset from the base always suffices; and the committed
        // successor of instruction i must be instruction i+1, which
        // is what lets nextPc be pcOff[i+1] instead of its own
        // array. Both are invariants of OracleStream — check them
        // while decoding rather than corrupting every replay.
        const Addr off = oi.pc - base_;
        if (oi.pc < base_ || off > 0xffffffffULL ||
            (next_ != kNoAddr && oi.pc != next_)) {
            throw std::logic_error(
                "OracleDecoder: committed path violates the "
                "flat-replay invariants at instruction " +
                std::to_string(path_.instCount() - 1));
        }
        next_ = oi.nextPc;

        pcOff[i] = static_cast<std::uint32_t>(off);
        meta[i] = static_cast<std::uint8_t>(
            (static_cast<unsigned>(oi.cls) & 0x07) |
            ((static_cast<unsigned>(oi.btype) & 0x07) << 3) |
            (oi.taken ? 0x40u : 0u));
        accesses += (oi.cls == InstClass::Load) |
                    (oi.cls == InstClass::Store);
    }

    // The address stream does not depend on the control path, only
    // on how many loads and stores it holds: drawing those in one
    // loop keeps its data-dependent branches out of the loop above
    // (interleaved, they cost a third of the decode time on thrash).
    for (; accesses > 0; --accesses)
        data.push_back(data_.next());

    // Successor entry, so the last decoded instruction still has a
    // nextPc.
    if (i > 0) {
        const Addr off = next_ - base_;
        if (next_ < base_ || off > 0xffffffffULL) {
            throw std::logic_error(
                "OracleDecoder: final successor outside the image");
        }
        pcOff[i] = static_cast<std::uint32_t>(off);
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
    : image_(&image), base_(image.baseAddr()), seed_(seed),
      size_(insts)
{
    // Injection point standing in for the resize() throw below: a
    // decode that cannot get its memory must surface as bad_alloc
    // (which the sweep driver degrades to a private window), never
    // as a crash or a partial arena.
    if (SFETCH_FAULT("arena.alloc"))
        throw std::bad_alloc();
    // Size the control arrays up front and fill by index: the decode
    // is the arena's whole cost, and per-element push_back capacity
    // checks plus lazy first-touch page faults were a third of it.
    pcOff_.resize(insts + 1);
    meta_.resize(insts);
    dataAddr_.reserve(insts / 2);

    // The live generator never runs out, so this fills every entry.
    OracleDecoder(image, model, seed)
        .decode(pcOff_.data(), meta_.data(), dataAddr_, insts);

    registeredBytes_ = bytes();
    g_liveArenaBytes.fetch_add(registeredBytes_,
                               std::memory_order_relaxed);
}

OracleView
OracleArena::view() const
{
    OracleView v;
    v.base = base_;
    v.pcOff = pcOff_.data();
    v.meta = meta_.data();
    v.data = dataAddr_.data();
    v.last = size_;
    v.dataLast = dataAddr_.size();
    return v;
}

std::size_t
OracleArena::bytes() const
{
    return pcOff_.capacity() * sizeof(std::uint32_t) +
        meta_.capacity() * sizeof(std::uint8_t) +
        dataAddr_.capacity() * sizeof(Addr);
}

OracleWindow::OracleWindow(const CodeImage &image,
                           const WorkloadModel &model,
                           std::uint64_t seed,
                           const RecordedTrace *replay,
                           std::size_t capacity)
    : decoder_(image, model, seed, replay), capacity_(capacity),
      pcOff_(capacity + 1), meta_(capacity)
{
    // Data accesses never outnumber the instructions held, so this
    // one reservation covers every refill.
    data_.reserve(capacity);
    view_.base = image.baseAddr();
    view_.pcOff = pcOff_.data();
    view_.meta = meta_.data();
    refill(0, 0);
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
    data_.erase(data_.begin(),
                data_.begin() +
                    static_cast<std::ptrdiff_t>(keep_data_from -
                                                view_.dataFirst));
    view_.first = keep_from;
    view_.dataFirst = keep_data_from;

    const std::size_t added = decoder_.decode(
        pcOff_.data() + kept, meta_.data() + kept, data_,
        capacity_ - kept);
    view_.last += added;
    view_.data = data_.data();
    view_.dataLast = view_.dataFirst + data_.size();
    return added > 0;
}

} // namespace sfetch
