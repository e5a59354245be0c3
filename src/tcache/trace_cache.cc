#include "tcache/trace_cache.hh"

#include <cassert>

namespace sfetch
{

TraceCache::TraceCache(const TraceCacheConfig &cfg) : cfg_(cfg)
{
    // One entry holds maxInsts instructions of 4 bytes each.
    entries_ = cfg_.sizeBytes / (std::uint64_t(cfg_.maxInsts) *
                                 kInstBytes);
    assert(entries_ % cfg_.assoc == 0);
    numSets_ = entries_ / cfg_.assoc;
    assert(numSets_ && !(numSets_ & (numSets_ - 1)));
    ways_.resize(entries_);
}

std::size_t
TraceCache::setIndex(Addr start) const
{
    return (start / kInstBytes) & (numSets_ - 1);
}

const TraceDescriptor *
TraceCache::lookup(Addr start, std::uint32_t dir_bits,
                   std::uint8_t num_cond)
{
    ++lookups_;
    ++tick_;
    const std::size_t base = setIndex(start) * cfg_.assoc;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        Way &way = ways_[base + w];
        if (way.valid && way.trace.start == start &&
            way.trace.numCond == num_cond &&
            (way.trace.dirBits & ((1u << num_cond) - 1)) ==
                (dir_bits & ((1u << num_cond) - 1))) {
            way.lastUse = tick_;
            ++hits_;
            return &way.trace;
        }
    }
    return nullptr;
}

const TraceDescriptor *
TraceCache::lookupAnyDirections(Addr start)
{
    ++tick_;
    const std::size_t base = setIndex(start) * cfg_.assoc;
    Way *best = nullptr;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        Way &way = ways_[base + w];
        if (way.valid && way.trace.start == start &&
            (!best || way.lastUse > best->lastUse)) {
            best = &way;
        }
    }
    if (!best)
        return nullptr;
    best->lastUse = tick_;
    return &best->trace;
}

bool
TraceCache::insert(const TraceDescriptor &trace)
{
    if (cfg_.selectiveStorage && trace.sequential()) {
        ++rejected_;
        return false;
    }

    ++tick_;
    Way *set = &ways_[setIndex(trace.start) * cfg_.assoc];
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        Way &way = set[w];
        if (way.valid && way.trace.start == trace.start &&
            way.trace.numCond == trace.numCond &&
            way.trace.dirBits == trace.dirBits) {
            // Refresh an identical trace in place.
            way.trace = trace;
            way.lastUse = tick_;
            return true;
        }
    }

    Way &way = set[lruVictim(set, cfg_.assoc)];
    way.valid = true;
    way.trace = trace;
    way.lastUse = tick_;
    ++inserts_;
    return true;
}

} // namespace sfetch
