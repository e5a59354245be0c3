#include "sim/experiment.hh"

#include <atomic>
#include <chrono>
#include <stdexcept>

#include "core/stream_builder.hh"
#include "layout/layout_opt.hh"
#include "tcache/fill_unit.hh"
#include "util/fault_inject.hh"

namespace sfetch
{

namespace
{

/** Process-wide decode counters (see PlacedWorkload::arenaDecodes()). */
std::atomic<std::uint64_t> g_arenaDecodes{0};
std::atomic<std::uint64_t> g_arenaDecodeNanos{0};

} // namespace

PlacedWorkload::PlacedWorkload(const std::string &bench_spec)
    : name_(canonicalBenchSpec(bench_spec)),
      work_(buildBenchWorkload(name_))
{}

const CodeImage &
PlacedWorkload::image(bool optimized) const
{
    const int l = optimized ? 1 : 0;
    std::call_once(placeOnce_[l], [&] {
        // The optimized order comes from a `train`-input profile,
        // which dies with this scope.
        images_[l] = std::make_unique<const CodeImage>(
            program(), optimized
                ? optimizedOrder(program(), trainProfile())
                : baselineOrder(program()));
        placed_[l].store(true, std::memory_order_release);
    });
    return *images_[l];
}

bool
PlacedWorkload::placed(bool optimized) const
{
    return placed_[optimized ? 1 : 0].load(std::memory_order_acquire);
}

EdgeProfile
PlacedWorkload::trainProfile() const
{
    return collectProfile(program(), model(), kTrainSeed,
                          kTrainProfileRecords);
}

std::size_t
PlacedWorkload::bytes() const
{
    std::size_t bytes = sizeof(*this) + program().bytes() +
        model().bytes();
    for (bool optimized : {false, true})
        if (placed(optimized))
            bytes += sizeof(CodeImage) + image(optimized).bytes();
    return bytes;
}

std::shared_ptr<const OracleArena>
PlacedWorkload::arena(bool optimized, InstCount total_insts) const
{
    if (auto hit = cachedArena(optimized, total_insts))
        return hit;
    // The decode is a prefix property: a longer arena serves every
    // shorter request, so only the longest ever built per layout is
    // kept. A duplicate request waits here for the decode in flight
    // and then finds it cached, instead of racing it.
    const int l = optimized ? 1 : 0;
    std::lock_guard<std::mutex> build(buildMu_[l]);
    if (auto hit = cachedArena(optimized, total_insts))
        return hit;
    // Until it lands, the decode counts at the governor's estimate:
    // an arena on its way must keep the cache over budget, so
    // WorkloadCache::evictToBudget() goes on to evict whole
    // workloads just as it would once the arena is resident.
    std::shared_ptr<const OracleArena> fresh;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        std::shared_ptr<DataStream> data;
        {
            std::lock_guard<std::mutex> lock(arenaMu_);
            decoding_[l] = total_insts;
            data = data_.lock();
            if (!data) {
                data = std::make_shared<DataStream>(model().data(),
                                                    kRefSeed);
                data_ = data;
            }
        }
        fresh = std::make_shared<const OracleArena>(
            image(optimized), model(), kRefSeed, total_insts,
            std::move(data));
    } catch (...) {
        std::lock_guard<std::mutex> lock(arenaMu_);
        decoding_[l] = 0;
        throw;
    }
    g_arenaDecodes.fetch_add(1, std::memory_order_relaxed);
    g_arenaDecodeNanos.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count(),
        std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(arenaMu_);
    // A dropArenas() during the decode cleared the count: the caller
    // still gets its arena, but the cache does not keep it.
    if (decoding_[l] != 0) {
        decoding_[l] = 0;
        arenas_[l] = fresh;
    }
    return fresh;
}

std::uint64_t
PlacedWorkload::arenaDecodes()
{
    return g_arenaDecodes.load(std::memory_order_relaxed);
}

std::uint64_t
PlacedWorkload::arenaDecodeNanos()
{
    return g_arenaDecodeNanos.load(std::memory_order_relaxed);
}

std::shared_ptr<const OracleArena>
PlacedWorkload::cachedArena(bool optimized,
                            InstCount total_insts) const
{
    std::lock_guard<std::mutex> lock(arenaMu_);
    const std::shared_ptr<const OracleArena> &slot =
        arenas_[optimized ? 1 : 0];
    return slot && slot->size() >= total_insts ? slot : nullptr;
}

std::size_t
PlacedWorkload::arenaBytesResident() const
{
    std::lock_guard<std::mutex> lock(arenaMu_);
    return arenaBytesLocked();
}

std::size_t
PlacedWorkload::arenaBytesLocked() const
{
    std::size_t bytes = 0;
    const DataStream *counted = nullptr;
    for (int l = 0; l < 2; ++l) {
        bytes += decoding_[l] * kArenaBytesPerInstEstimate;
        if (!arenas_[l])
            continue;
        bytes += arenas_[l]->controlBytes();
        const DataStream &data = arenas_[l]->dataStream();
        if (&data != counted)
            bytes += data.bytes();
        counted = &data;
    }
    return bytes;
}

void
PlacedWorkload::dropArenas() const
{
    std::lock_guard<std::mutex> lock(arenaMu_);
    arenas_[0].reset();
    arenas_[1].reset();
    decoding_[0] = decoding_[1] = 0;
}

std::size_t
PlacedWorkload::shedArenas() const
{
    std::lock_guard<std::mutex> lock(arenaMu_);
    const std::size_t before = arenaBytesLocked();
    // use_count == 1 means this slot is the arena's only owner; a
    // replay in flight holds its own shared_ptr and is left alone.
    for (std::shared_ptr<const OracleArena> &slot : arenas_)
        if (slot.use_count() == 1)
            slot.reset();
    return before - arenaBytesLocked();
}

SimStats
runOn(const PlacedWorkload &work, const SimConfig &cfg,
      const OracleArena *arena, const RunTuning &tuning)
{
    return runOn(work, work.image(cfg.optimizedLayout), cfg, arena,
                 tuning);
}

SimStats
runOn(const PlacedWorkload &work, const CodeImage &image,
      const SimConfig &cfg, const OracleArena *arena,
      const RunTuning &tuning)
{
    if (SFETCH_FAULT("sim.run"))
        throw std::runtime_error("runOn: injected fault at sim.run");

    MemoryConfig mc;
    mc.l1i.lineBytes = cfg.lineBytes();
    MemoryHierarchy mem(mc);

    auto engine = cfg.makeEngine(image, &mem);

    ProcessorConfig pc;
    pc.width = cfg.width;
    pc.exactInstStop = tuning.exactInstStop;

    Processor proc(pc, engine.get(), image, work.model(), &mem,
                   kRefSeed, arena);
    return proc.run(cfg.insts, cfg.warmupInsts);
}

FetchUnitSizes
measureFetchUnits(const PlacedWorkload &work, bool optimized,
                  InstCount insts)
{
    FetchUnitSizes out;
    const CodeImage &img = work.image(optimized);
    RunWalker walk(img, work.model(), kRefSeed);
    StreamBuilder sb(img.entryAddr(), 255,
                     [&](const StreamDescriptor &s, bool) {
                         out.stream.sample(s.lenInsts);
                     });
    TraceFillUnit fill(img.entryAddr(), FillUnitConfig{},
                       [&](const TraceDescriptor &t, bool) {
                           out.trace.sample(t.totalInsts);
                       });
    std::uint64_t block = 0;
    PathRun run;
    for (InstCount i = 0; i < insts && walk.next(run, insts - i);
         i += run.len) {
        block += run.len;
        if (run.branch.type != BranchType::None) {
            out.basicBlock.sample(block);
            block = 0;
            sb.onBranch(run.branch);
            fill.onBranch(run.branch);
        }
    }
    return out;
}

SimStats
runBenchmark(const std::string &bench_name, const SimConfig &cfg)
{
    PlacedWorkload work(bench_name);
    return runOn(work, cfg);
}

} // namespace sfetch
