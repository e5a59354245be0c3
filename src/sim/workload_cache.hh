/**
 * @file
 * Process-wide registry of PlacedWorkloads. Building a workload is
 * moderately expensive (synthesis, then a placement per layout read,
 * the optimized one after a profiling run),
 * and every sweep wants the same eleven suite members, so the cache
 * constructs each exactly once and hands out shared read-only
 * references. Safe to use from many threads: concurrent get() calls
 * for the same name block on one build; calls for different names
 * build in parallel.
 *
 * For a resident daemon sweeping many bench specs the cache carries
 * byte accounting (the budgetable cost is each workload's cached
 * committed-path arenas — see PlacedWorkload::arenaBytesResident())
 * and LRU eviction, which sfetchd's memory governor drives against
 * its --mem-budget-mb. The entry is the one unit of eviction: its
 * arenas are shed together (PlacedWorkload::shedArenas()), and the
 * entry itself is erased only when that does not suffice.
 *
 * Pinning contract: get() returns a bare reference that eviction can
 * invalidate, so it remains correct only for callers that never
 * evict (every one-shot binary). Anything that runs concurrently
 * with eviction — daemon jobs above all — must pin the workload via
 * getShared() for as long as it reads it: evictLru() only removes
 * entries whose sole owner is the cache.
 */

#ifndef SFETCH_SIM_WORKLOAD_CACHE_HH
#define SFETCH_SIM_WORKLOAD_CACHE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace sfetch
{

class WorkloadCache
{
  public:
    /** The process-wide instance used by the sweep driver. */
    static WorkloadCache &instance();

    /**
     * The cached workload for @p bench_spec (a suite preset name or
     * a workload-registry spec), building it on first use. Specs are
     * keyed by their *canonical* form — family token plus the
     * canonical ParamSet text — so two specs naming the same
     * parameters in different order or spelling share one build,
     * while specs differing in any workload parameter can never
     * alias one entry. The reference stays valid (and immutable)
     * until the entry is evicted or cleared — see the pinning
     * contract in the file comment. Throws std::invalid_argument for
     * unknown names.
     */
    const PlacedWorkload &get(const std::string &bench_spec);

    /**
     * As get(), but returns an owning handle that pins the workload:
     * entries with outstanding getShared() references are never
     * evicted (and stay fully valid even across clear()).
     */
    std::shared_ptr<const PlacedWorkload>
    getShared(const std::string &bench_spec);

    /** True when @p bench_spec has already been built. */
    bool contains(const std::string &bench_spec) const;

    /** Number of workloads built so far. */
    std::size_t size() const;

    /**
     * Budgetable bytes resident in the cache: the sum of
     * arenaBytesResident() over every built entry, pinned ones
     * included. (The workloads themselves, up to ~1.1 MB each —
     * workloadBytes() — are not counted; see
     * kArenaBytesPerInstEstimate in sim/experiment.hh for how the
     * governor allows for them.)
     */
    std::size_t bytesResident() const;

    /**
     * Bytes the cached workloads hold outside their arenas: the sum
     * of PlacedWorkload::bytes() (program, model, placed images)
     * over every built entry. Reported, not budgeted.
     */
    std::size_t workloadBytes() const;

    /**
     * Evict the least-recently-used entry whose only owner is the
     * cache (pinned entries are skipped). Returns the arena bytes
     * released, or 0 when nothing was evictable — including when the
     * cache is empty. The evicted workload's arenas die with it
     * unless a sweep still holds their shared_ptrs.
     */
    std::size_t evictLru();

    /**
     * Evict until bytesResident() <= @p budget_bytes or nothing more
     * is evictable, walking entries least recently used first: first
     * shed each entry's arenas (PlacedWorkload::shedArenas(), pinned
     * entries too), then erase whole unpinned entries (evictLru()).
     * Never frees an arena a replay holds. Each shed and each erase
     * counts one eviction. Returns total bytes released.
     */
    std::size_t evictToBudget(std::size_t budget_bytes);

    /** Lifetime hit/miss/eviction counters (hits = get/getShared
     * calls that found the workload already built). */
    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t evictions() const { return evictions_.load(); }

    /**
     * Drop every cache entry *and* every cached arena reference,
     * including arenas of entries kept alive by outstanding
     * getShared() pins (those workloads stay usable; their arenas
     * are re-decoded on next use). Testing hook and the daemon's
     * memory panic button.
     */
    void clear();

  private:
    /**
     * Per-name slot. The once flag serializes the build; the map
     * mutex only guards slot creation/eviction and publishing the
     * built handle, so distinct names can build concurrently. Slots are shared_ptr-held: a thread
     * mid-build keeps its slot alive even if the entry is evicted
     * under it.
     */
    struct Slot
    {
        std::once_flag once;
        std::shared_ptr<PlacedWorkload> work;
        std::uint64_t lastUse = 0;
    };

    std::shared_ptr<Slot> slot(const std::string &bench_name);
    std::shared_ptr<PlacedWorkload>
    build(const std::string &bench_spec);

    mutable std::mutex mu_;
    std::map<std::string, std::shared_ptr<Slot>> slots_;
    std::uint64_t useClock_ = 0;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace sfetch

#endif // SFETCH_SIM_WORKLOAD_CACHE_HH
