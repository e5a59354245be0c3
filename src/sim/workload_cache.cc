#include "sim/workload_cache.hh"

#include <algorithm>

#include "workload/workload_registry.hh"

namespace sfetch
{

WorkloadCache &
WorkloadCache::instance()
{
    static WorkloadCache cache;
    return cache;
}

std::shared_ptr<WorkloadCache::Slot>
WorkloadCache::slot(const std::string &bench_name)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Slot> &s = slots_[bench_name];
    if (!s)
        s = std::make_shared<Slot>();
    s->lastUse = ++useClock_;
    return s;
}

std::shared_ptr<PlacedWorkload>
WorkloadCache::build(const std::string &bench_spec)
{
    // Key on the canonical spec (validated here, before any slot is
    // created): without this, `loops:depth=2,trips=8` and
    // `loops:trips=8,depth=2` would build twice — and a key that
    // dropped workload params would let different workloads alias
    // one cache entry.
    const std::string key = canonicalBenchSpec(bench_spec);
    std::shared_ptr<Slot> s = slot(key);
    bool missed = false;
    std::call_once(s->once, [&] {
        missed = true;
        auto work = std::make_shared<PlacedWorkload>(key);
        // Published under the map mutex: the byte gauges and size()
        // read every slot's handle under it, builds in flight too.
        std::lock_guard<std::mutex> lock(mu_);
        s->work = std::move(work);
    });
    (missed ? misses_ : hits_).fetch_add(1);
    // The local shared_ptr<Slot> keeps the slot (and its workload)
    // alive even if the entry is evicted from the map concurrently.
    return s->work;
}

const PlacedWorkload &
WorkloadCache::get(const std::string &bench_spec)
{
    return *build(bench_spec);
}

std::shared_ptr<const PlacedWorkload>
WorkloadCache::getShared(const std::string &bench_spec)
{
    return build(bench_spec);
}

bool
WorkloadCache::contains(const std::string &bench_spec) const
{
    const std::string key = canonicalBenchSpec(bench_spec);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    return it != slots_.end() && it->second->work != nullptr;
}

std::size_t
WorkloadCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto &[name, s] : slots_)
        if (s->work)
            ++n;
    return n;
}

std::size_t
WorkloadCache::bytesResident() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t bytes = 0;
    for (const auto &[name, s] : slots_)
        if (s->work)
            bytes += s->work->arenaBytesResident();
    return bytes;
}

std::size_t
WorkloadCache::workloadBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t bytes = 0;
    for (const auto &[name, s] : slots_)
        if (s->work)
            bytes += s->work->bytes();
    return bytes;
}

std::size_t
WorkloadCache::evictLru()
{
    std::lock_guard<std::mutex> lock(mu_);
    auto victim = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
        const std::shared_ptr<Slot> &s = it->second;
        // Only entries the cache solely owns are evictable: an
        // outstanding getShared() pin (use_count > 1) means a job is
        // still reading the workload.
        if (!s->work || s->work.use_count() > 1)
            continue;
        if (victim == slots_.end() ||
            s->lastUse < victim->second->lastUse)
            victim = it;
    }
    if (victim == slots_.end())
        return 0;
    const std::size_t bytes =
        victim->second->work->arenaBytesResident();
    slots_.erase(victim);
    evictions_.fetch_add(1);
    return bytes;
}

std::size_t
WorkloadCache::evictToBudget(std::size_t budget_bytes)
{
    // Two passes over the entries, oldest first on their lastUse
    // clock. First shed arenas: that keeps the builds warm, pinned
    // ones included, and often suffices.
    std::vector<std::pair<std::uint64_t,
                          std::shared_ptr<PlacedWorkload>>> lru;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[name, s] : slots_)
            if (s->work)
                lru.emplace_back(s->lastUse, s->work);
    }
    std::sort(lru.begin(), lru.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    std::size_t freed = 0;
    for (const auto &[last_use, work] : lru) {
        if (bytesResident() <= budget_bytes)
            break;
        if (const std::size_t got = work->shedArenas()) {
            evictions_.fetch_add(1);
            freed += got;
        }
    }
    // The snapshot's references would read as pins to evictLru().
    lru.clear();
    while (bytesResident() > budget_bytes) {
        // Then whole entries: reached when the remaining arenas are
        // held by replays (shedArenas() keeps those, but dropping
        // the entry releases the cache's reference all the same) or
        // still decoding. An eviction can free 0 bytes, so progress
        // is judged by the eviction counter, not the byte yield.
        const std::uint64_t before = evictions_.load();
        freed += evictLru();
        if (evictions_.load() == before)
            break;
    }
    return freed;
}

void
WorkloadCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    // Entries pinned by getShared() survive this clear() through
    // their external owners, but their arena slots are dropped here
    // so the decode memory is released as soon as any in-flight
    // replay finishes (a clear() that left multi-MB arenas parked
    // on pinned workloads would not actually free anything).
    for (const auto &[name, s] : slots_)
        if (s->work)
            s->work->dropArenas();
    slots_.clear();
}

} // namespace sfetch
