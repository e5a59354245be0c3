#include "layout/oracle_arena.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>
#include <sstream>
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

/** A meta byte m is a load's or a store's when (m & sel) == eq. */
constexpr std::uint8_t kMemMetaSel = 0x06, kMemMetaEq = 0x02;
static_assert(static_cast<unsigned>(InstClass::Load) == 2 &&
                  static_cast<unsigned>(InstClass::Store) == 3,
              "loads and stores share the class bits 01x");

/** Largest offset the stream encoding stores. */
constexpr Addr kMaxOffset = 0xffffffffULL;

[[noreturn]] void
throwUnencodable(const char *what, std::uint64_t inst, Addr pc)
{
    std::ostringstream os;
    os << "OracleDecoder: " << what << " at instruction " << inst
       << " (pc 0x" << std::hex << pc << ")";
    throw std::logic_error(os.str());
}

/**
 * Draw the next @p n data addresses of @p src into @p out as
 * offsets from kDataRegionBase; @p first is the first one's ordinal,
 * for the error. Throws std::logic_error for an address outside the
 * u32 offset range above kDataRegionBase.
 */
void
drawDataOffsets(DataAddressStream &src, std::uint32_t *out,
                std::size_t n, std::uint64_t first)
{
    for (std::size_t k = 0; k < n; ++k) {
        const Addr off = src.next() - kDataRegionBase;
        if (off > kMaxOffset) {
            std::ostringstream os;
            os << "DataStream: data address outside the u32 offset "
                  "range above kDataRegionBase at access "
               << first + k;
            throw std::logic_error(os.str());
        }
        out[k] = static_cast<std::uint32_t>(off);
    }
}

} // namespace

void
OracleStreams::clear()
{
    insts = conds = accesses = 0;
    condTaken.clear();
    target.clear();
}

OracleDecoder::OracleDecoder(const CodeImage &image,
                             const WorkloadModel &model,
                             std::uint64_t seed)
    : image_(&image), path_(image, model, seed),
      base_(image.baseAddr()), next_(image.entryAddr())
{
    // Every pc is then a u32 offset from the base.
    if (image.endAddr() - base_ > kMaxOffset)
        throw std::logic_error("OracleDecoder: image larger than the "
                               "u32 offset range");
}

void
OracleDecoder::decode(OracleStreams &out, std::size_t n)
{
    const std::uint8_t *imeta = image_->meta();
    const Addr image_bytes = image_->endAddr() - base_;
    Addr pc = kNoAddr;
    auto refuse = [&](const char *what) {
        throwUnencodable(what, path_.instCount() - 1, pc);
    };
    std::size_t accesses = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const OracleInst oi = path_.next();
        pc = oi.pc;
        // The encoding keeps only what the image cannot derive, so
        // every instruction must be its predecessor's successor and
        // agree with the image on class, type and every static
        // successor. All are invariants of OracleStream: check them
        // while decoding rather than corrupting every replay.
        const Addr off = oi.pc - base_;
        if (oi.pc != next_ || off >= image_bytes)
            refuse("instruction off the committed path");
        const std::uint8_t mb = imeta[off / kInstBytes];
        if (packMeta(oi.cls, oi.btype) != mb)
            refuse("class or branch type disagrees with the image");

        Addr expect = oi.pc + kInstBytes;
        bool taken = false;
        switch (oi.btype) {
          case BranchType::None:
            break;
          case BranchType::CondDirect: {
            const std::uint64_t c = out.conds++;
            if (c % 64 == 0)
                out.condTaken.push_back(0);
            taken = oi.taken;
            if (taken) {
                out.condTaken.back() |= std::uint64_t(1) << (c % 64);
                expect = image_->takenTarget(oi.pc);
            }
            break;
          }
          case BranchType::Jump:
          case BranchType::Call:
            taken = true;
            expect = image_->takenTarget(oi.pc);
            break;
          case BranchType::Return:
          case BranchType::IndirectJump:
            if (!image_->contains(oi.nextPc))
                refuse("successor outside the image");
            taken = true;
            expect = oi.nextPc;
            out.target.push_back(
                static_cast<std::uint32_t>(oi.nextPc - base_));
            break;
        }
        if (oi.nextPc != expect || oi.taken != taken)
            refuse("successor disagrees with the image");
        next_ = oi.nextPc;
        accesses += (mb & kMemMetaSel) == kMemMetaEq;
    }
    out.insts += n;
    out.accesses += accesses;
}

std::size_t
OracleArena::liveBytes()
{
    return g_liveArenaBytes.load(std::memory_order_relaxed);
}

DataStream::DataStream(const DataModel &model, std::uint64_t seed)
    : seed_(seed), src_(model, seed ^ kDataStreamSeedSalt)
{}

DataStream::~DataStream()
{
    g_liveArenaBytes.fetch_sub(bytes(), std::memory_order_relaxed);
}

std::vector<const std::uint32_t *>
DataStream::extendTo(std::uint64_t n)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t have = size_.load(std::memory_order_relaxed);
    while (have < n) {
        const std::size_t at = have % kChunkOffsets;
        if (at == 0) {
            chunks_.emplace_back(new std::uint32_t[kChunkOffsets]);
            chunkCount_.store(chunks_.size(),
                              std::memory_order_relaxed);
            g_liveArenaBytes.fetch_add(kChunkOffsets *
                                           sizeof(std::uint32_t),
                                       std::memory_order_relaxed);
        }
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunkOffsets - at, n - have));
        drawDataOffsets(src_, chunks_.back().get() + at, take, have);
        have += take;
        size_.store(have, std::memory_order_relaxed);
    }
    std::vector<const std::uint32_t *> held(
        (n + kChunkOffsets - 1) / kChunkOffsets);
    for (std::size_t c = 0; c < held.size(); ++c)
        held[c] = chunks_[c].get();
    return held;
}

std::uint64_t
DataStream::size() const
{
    return size_.load(std::memory_order_relaxed);
}

std::size_t
DataStream::bytes() const
{
    return chunkCount_.load(std::memory_order_relaxed) *
        kChunkOffsets * sizeof(std::uint32_t);
}

OracleArena::~OracleArena()
{
    g_liveArenaBytes.fetch_sub(registeredBytes_,
                               std::memory_order_relaxed);
}

OracleArena::OracleArena(const CodeImage &image,
                         const WorkloadModel &model,
                         std::uint64_t seed, std::uint64_t insts)
    : OracleArena(image, model, seed, insts,
                  std::make_shared<DataStream>(model.data(), seed))
{}

OracleArena::OracleArena(const CodeImage &image,
                         const WorkloadModel &model,
                         std::uint64_t seed, std::uint64_t insts,
                         std::shared_ptr<DataStream> data)
    : image_(&image), seed_(seed), data_(std::move(data))
{
    if (data_->seed() != seed)
        throw std::invalid_argument(
            "OracleArena: the data stream was drawn for another seed");
    // Injection point standing in for the allocations below: a
    // decode that cannot get its memory must surface as bad_alloc
    // (which the sweep driver degrades to a private window), never
    // as a crash or a partial arena.
    if (SFETCH_FAULT("arena.alloc"))
        throw std::bad_alloc();
    // The control part grows with the decode, then is copied down
    // to its exact size. Reserving its upper bound up front would
    // leave a hole of touched heap behind every decode once glibc's
    // dynamic mmap threshold has risen.
    OracleDecoder(image, model, seed).decode(streams_, insts);
    streams_.condTaken.shrink_to_fit();
    streams_.target.shrink_to_fit();
    // The data addresses depend only on how many loads and stores
    // the path holds, so they are drawn after the control loop (its
    // data-dependent branches would slow that loop), and only where
    // the sibling layout's decode has not drawn them already.
    dataChunks_ = data_->extendTo(streams_.accesses);

    registeredBytes_ = controlBytes();
    g_liveArenaBytes.fetch_add(registeredBytes_,
                               std::memory_order_relaxed);
}

void
OracleArena::copyData(std::uint64_t first, std::size_t n,
                      std::uint32_t *out) const
{
    constexpr std::size_t chunk = DataStream::kChunkOffsets;
    while (n > 0) {
        const std::size_t at = static_cast<std::size_t>(first % chunk);
        const std::size_t take = std::min(n, chunk - at);
        std::memcpy(out, dataChunks_[first / chunk] + at,
                    take * sizeof(std::uint32_t));
        out += take;
        first += take;
        n -= take;
    }
}

std::size_t
OracleArena::controlBytes() const
{
    return streams_.condTaken.capacity() * sizeof(std::uint64_t) +
        streams_.target.capacity() * sizeof(std::uint32_t);
}

std::size_t
OracleArena::bytes() const
{
    return controlBytes() + data_->bytes();
}

RunWalker::RunWalker(const CodeImage &image, const OracleArena *arena)
    : image_(&image), meta_(image.meta()), arena_(arena),
      next_(static_cast<std::uint32_t>(image.entryAddr() -
                                       image.baseAddr())),
      block_(next_ / kInstBytes),
      mask_(simd::maskTestU8(meta_ + block_, 32, kMetaBranchBits))
{}

RunWalker::RunWalker(const OracleArena &arena)
    : RunWalker(*arena.image(), &arena)
{}

RunWalker::RunWalker(const CodeImage &image, const WorkloadModel &model,
                     std::uint64_t seed)
    : RunWalker(image, nullptr)
{
    decoder_.emplace(image, model, seed);
    chunk_.condTaken.reserve(kChunkInsts / 64 + 1);
    chunk_.target.reserve(kChunkInsts);
}

bool
RunWalker::next(PathRun &out, std::size_t max)
{
    const OracleStreams &src = arena_ ? arena_->streams() : chunk_;
    if (inst_ == src.insts) {
        if (arena_)
            return false;
        chunk_.clear();
        decoder_->decode(chunk_, kChunkInsts);
        inst_ = cond_ = target_ = 0;
    }
    const std::size_t room =
        std::min(max, static_cast<std::size_t>(src.insts - inst_));
    const std::size_t first = next_ / kInstBytes;

    // mask_ holds the branches of block_ from first on (the meta
    // bytes are padded, so a block may end past the image). The run
    // ends at the first of them, or at room.
    while (!mask_ && block_ + 32 - first < room) {
        block_ += 32;
        mask_ = simd::maskTestU8(meta_ + block_, 32, kMetaBranchBits);
    }
    const std::size_t at = block_ + (mask_ ? simd::bottomBit(mask_) : 32);
    const bool ends = at - first < room;
    const std::size_t len = ends ? at - first + 1 : room;
    if (ends)
        mask_ &= mask_ - 1;
    std::uint32_t accesses = 0;
    for (std::size_t k = 0; k < len; k += 32) {
        std::uint32_t m = simd::maskEqU8(meta_ + first + k, 32,
                                         kMemMetaSel, kMemMetaEq);
        if (len - k < 32)
            m &= (1u << (len - k)) - 1;
        for (; m; m &= m - 1)
            ++accesses;
    }

    out.start = next_;
    out.len = static_cast<std::uint32_t>(len);
    out.accesses = accesses;
    inst_ += len;
    next_ += static_cast<std::uint32_t>(instsToBytes(len));

    CommittedBranch &br = out.branch;
    br = CommittedBranch{};
    if (!ends)
        return true; // cut before the branch
    const Addr base = image_->baseAddr();
    br.pc = base + instsToBytes(at);
    br.type = metaBranchType(meta_[at]);
    if (br.type == BranchType::CondDirect) {
        const std::size_t c = cond_++;
        br.taken = (src.condTaken[c / 64] >> (c % 64)) & 1;
        if (!br.taken) {
            br.target = br.pc + kInstBytes;
            return true; // the run's successor is sequential
        }
    }
    br.taken = true;
    br.target = br.type == BranchType::Return ||
            br.type == BranchType::IndirectJump
        ? base + src.target[target_++]
        : image_->takenTarget(br.pc);
    next_ = static_cast<std::uint32_t>(br.target - base);
    block_ = next_ / kInstBytes;
    mask_ = simd::maskTestU8(meta_ + block_, 32, kMetaBranchBits);
    return true;
}

OracleWindow::OracleWindow(const CodeImage &image,
                           const WorkloadModel &model,
                           std::uint64_t seed,
                           std::size_t capacity)
    : walker_(image, model, seed),
      data_(std::in_place, model.data(), seed ^ kDataStreamSeedSalt),
      image_(&image), capacity_(capacity),
      // The successor entry of the empty window: the path's start.
      pcOff_(capacity + 1, walker_.nextOff()), meta_(capacity)
{
    // Data accesses never outnumber the instructions held, so this
    // one reservation covers every refill.
    dataOff_.reserve(capacity);
    refill(0, 0);
}

OracleWindow::OracleWindow(const OracleArena &arena,
                           std::size_t capacity)
    : walker_(arena), image_(arena.image()), capacity_(capacity),
      pcOff_(capacity + 1, walker_.nextOff()), meta_(capacity)
{
    dataOff_.reserve(capacity);
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
    dataOff_.erase(dataOff_.begin(),
                   dataOff_.begin() +
                       static_cast<std::ptrdiff_t>(keep_data_from -
                                                   view_.dataFirst));

    // Expand the walk into the room left, run by run: each run is the
    // image's meta bytes at sequential pcs, and only a taken branch's
    // bit is the path's own.
    const std::uint8_t *image = image_->meta();
    std::uint8_t *meta = meta_.data();
    std::uint32_t *pc = pcOff_.data();
    std::size_t i = kept, accesses = 0;
    PathRun run;
    while (i < capacity_ && walker_.next(run, capacity_ - i)) {
        std::memcpy(meta + i, image + run.start / kInstBytes, run.len);
        for (std::uint32_t k = 0; k < run.len; ++k)
            pc[i + k] = run.start + k * kInstBytes;
        i += run.len;
        if (run.branch.taken)
            meta[i - 1] |= kMetaTakenBit;
        accesses += run.accesses;
    }
    pc[i] = walker_.nextOff();

    // Then the data offsets of their loads and stores.
    const std::size_t held = dataOff_.size();
    dataOff_.resize(held + accesses); // within the reservation
    const std::uint64_t data = keep_data_from + held;
    if (const OracleArena *arena = walker_.arena())
        arena->copyData(data, accesses, dataOff_.data() + held);
    else
        drawDataOffsets(*data_, dataOff_.data() + held, accesses, data);
    view_ = {image_->baseAddr(), pc, meta, dataOff_.data(), keep_from,
             keep_from + i, keep_data_from, data + accesses};
    return i > kept;
}

} // namespace sfetch
