/**
 * @file
 * Steady-state allocation gate for the simulator hot loop. The
 * zero-allocation refactor (fixed-capacity FetchBundle, ring-buffer
 * fetch buffer / ROB / FTQ, incremental oracle) is contractually
 * allocation-free per simulated cycle; this test instruments global
 * operator new and asserts that simulating *more* instructions does
 * not allocate more memory — i.e. allocation cost is O(1) per run
 * (end-of-run stats assembly), not O(cycles).
 *
 * A companion test bounds the heap of a whole unshared run: its
 * committed-path window has a constant size, so simulating ten times
 * as many instructions must request no more memory.
 *
 * At the seed revision the hot loop allocated ~3.6 times per cycle
 * (fresh std::vector per fetchCycle, deque churn, unordered_map per
 * branch), which this test would fail by five orders of magnitude.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "pipeline/processor.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/workload_cache.hh"
#include "util/alloc_gates.hh"
#include "util/alloc_hook.hh"

namespace sfetch
{
namespace
{

/** Allocations during one measured continuation run of @p proc. */
std::uint64_t
allocsDuring(Processor &proc, InstCount insts)
{
    std::uint64_t before = allocCount();
    proc.run(insts);
    return allocCount() - before;
}

void
expectSteadyStateAllocFree(const char *arch,
                           const OracleArena *arena = nullptr)
{
    const PlacedWorkload &work = WorkloadCache::instance().get("gzip");
    SimConfig cfg(arch);
    const CodeImage &image = work.image(true);

    MemoryConfig mc;
    mc.l1i.lineBytes = cfg.lineBytes();
    MemoryHierarchy mem(mc);
    auto engine = cfg.makeEngine(image, &mem);

    ProcessorConfig pc;
    Processor proc(pc, engine.get(), image, work.model(), &mem,
                   kRefSeed, arena);

    // Warm up: predictor tables, commit-side sets, vector capacities.
    proc.run(30000, 10000);

    // A short and a 3x longer continuation. Each includes the same
    // fixed end-of-run cost (StatSet assembly); a hot loop that
    // allocates would scale with the extra ~45k instructions.
    std::uint64_t a_short = allocsDuring(proc, 20000);
    std::uint64_t a_long = allocsDuring(proc, 65000);

    EXPECT_LE(a_long, a_short + kSteadyStateAllocSlack)
        << arch << (arena ? " (arena replay)" : "")
        << ": allocation count grows with instruction count "
        << "(short run " << a_short << ", long run " << a_long
        << ") - the hot loop allocates";
}

TEST(SteadyStateAllocations, StreamEngineHotLoopIsAllocationFree)
{
    expectSteadyStateAllocFree("stream");
}

TEST(SteadyStateAllocations, SeqEngineHotLoopIsAllocationFree)
{
    expectSteadyStateAllocFree("seq");
}

TEST(SteadyStateAllocations, Ev8EngineHotLoopIsAllocationFree)
{
    expectSteadyStateAllocFree("ev8");
}

TEST(SteadyStateAllocations, FtbEngineHotLoopIsAllocationFree)
{
    expectSteadyStateAllocFree("ftb");
}

// The trace-cache path used to allocate per trace built (segment
// vectors in the fill unit's in-progress descriptor and in the cache
// ways, ~0.7 allocations/cycle): the inline-storage TraceDescriptor
// and the inline copy of a latched trace's segments make it as
// allocation-free as the stream path.
TEST(SteadyStateAllocations, TraceEngineHotLoopIsAllocationFree)
{
    expectSteadyStateAllocFree("trace");
}

// Arena-backed replay must not trade the generator's work for heap
// churn: refilling the run's window from the arena, pre-generated
// data addresses included, allocates nothing either.
TEST(SteadyStateAllocations, ArenaBackedReplayIsAllocationFree)
{
    const PlacedWorkload &work = WorkloadCache::instance().get("gzip");
    auto arena = work.arena(true, 200'000);
    expectSteadyStateAllocFree("stream", arena.get());
    expectSteadyStateAllocFree("trace", arena.get());
}

/** Heap bytes requested by one whole unshared run (set-up included). */
std::uint64_t
bytesForRun(const PlacedWorkload &work, InstCount insts)
{
    SimConfig cfg("stream");
    cfg.insts = insts;
    cfg.warmupInsts = 0;
    const std::uint64_t before = allocBytes();
    runOn(work, cfg);
    return allocBytes() - before;
}

// A run that does not replay a shared arena decodes its committed
// path into a constant-size private window: its heap must not grow
// with the run length the way a whole-run decode would.
TEST(OracleMemory, UnsharedRunHeapDoesNotGrowWithRunLength)
{
    const PlacedWorkload &work = WorkloadCache::instance().get("gzip");
    const std::uint64_t short_run = bytesForRun(work, 100'000);
    const std::uint64_t long_run = bytesForRun(work, 1'000'000);
    EXPECT_LE(long_run, short_run + 4096)
        << "short run " << short_run << " B, 10x longer run "
        << long_run << " B";

    // A whole-run arena of the long run is several times that heap.
    OracleArena arena(work.image(true), work.model(), kRefSeed,
                      1'000'000);
    EXPECT_LT(long_run, arena.bytes());
}

} // namespace
} // namespace sfetch
