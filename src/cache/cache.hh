/**
 * @file
 * Set-associative cache timing model with true-LRU replacement.
 * Tracks hits/misses only (no data); latency composition is handled
 * by MemoryHierarchy.
 */

#ifndef SFETCH_CACHE_CACHE_HH
#define SFETCH_CACHE_CACHE_HH

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "util/simd.hh"
#include "util/types.hh"

namespace sfetch
{

/** Geometry of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64u << 10;
    unsigned assoc = 2;
    unsigned lineBytes = 64;

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (std::uint64_t(assoc) * lineBytes);
    }
};

/**
 * Tag-only set-associative cache with LRU replacement. access()
 * returns hit/miss and allocates on miss.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Probe and allocate. @return true on hit. Defined inline: this
     * is the per-simulated-access path of every cache level.
     */
    bool
    access(Addr addr)
    {
    ++tick_;
    const std::size_t set = setIndex(addr);
    const std::size_t base = set * cfg_.assoc;
    const Addr tag = tagOf(addr);

    // Fast path: most accesses re-touch the most recently used way
    // of the set, skipping the associative scan entirely. The tag
    // sentinel (kNoAddr = invalid; a real tag is addr >> setShift_
    // and can never reach it) folds the validity test into the tag
    // compare.
    {
        const std::size_t m = base + mru_[set];
        if (tags_[m] == tag) {
            lastUse_[m] = tick_;
            ++hits_;
            return true;
        }
    }

    // One vector compare over the set's contiguous tag words finds
    // the first way holding either the probed tag (hit) or the
    // invalid sentinel. Ways fill front-to-back and are only
    // invalidated en masse by flush(), so the first invalid way ends
    // the lookup (the tag cannot be resident beyond it) and is the
    // allocation victim.
    const std::size_t w =
        simd::findEitherU64(&tags_[base], cfg_.assoc, tag, kNoAddr);
    if (w < cfg_.assoc && tags_[base + w] == tag) {
        lastUse_[base + w] = tick_;
        mru_[set] = static_cast<std::uint32_t>(w);
        ++hits_;
        return true;
    }

    std::size_t victim = base + w;
    if (w == cfg_.assoc) {
        // Full set, no hit: evict true-LRU.
        victim = base;
        std::uint64_t oldest = lastUse_[base];
        for (unsigned k = 1; k < cfg_.assoc; ++k) {
            if (lastUse_[base + k] < oldest) {
                oldest = lastUse_[base + k];
                victim = base + k;
            }
        }
    }

    ++misses_;
    tags_[victim] = tag;
    lastUse_[victim] = tick_;
    mru_[set] = static_cast<std::uint32_t>(victim - base);
    return false;
    }

    /** Probe without allocating or touching LRU state. */
    bool probe(Addr addr) const;

    /**
     * Host-side prefetch of the way state @p addr would touch. Pure
     * performance hint for callers that know future access addresses
     * (the arena replay path): no modelled state changes.
     */
    void
    prefetch(Addr addr) const
    {
#if defined(__GNUC__) || defined(__clang__)
        const std::size_t base = setIndex(addr) * cfg_.assoc;
        __builtin_prefetch(&tags_[base], 1, 1);
        __builtin_prefetch(&lastUse_[base], 1, 1);
#else
        (void)addr; // hint only; no portable equivalent needed
#endif
    }

    /**
     * Invalidate every line, as after a context switch: the contents
     * are gone but the hit/miss counters and the LRU clock keep
     * running. Callers that restart *measurement* (not machine
     * state) want resetStats() instead; warmup boundaries reset
     * stats while keeping the warmed-up contents.
     */
    void flush();

    const CacheConfig &config() const { return cfg_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        std::uint64_t total = hits_ + misses_;
        return total ? double(misses_) / double(total) : 0.0;
    }

    /** Align @p addr down to its line base. */
    Addr
    lineBase(Addr addr) const
    {
        return addr & ~Addr(cfg_.lineBytes - 1);
    }

    /**
     * Zero the hit/miss counters, keeping contents and the LRU clock
     * (resetting the clock would make resident lines look newer than
     * every later access). This is the warmup-boundary hook used by
     * MemoryHierarchy::resetStats(); flush() is the one that drops
     * contents.
     */
    void
    resetStats()
    {
        hits_ = misses_ = 0;
    }

  private:
    std::size_t
    setIndex(Addr addr) const
    {
        return (addr >> lineShift_) & setMask_;
    }

    Addr
    tagOf(Addr addr) const
    {
        // setShift_ >= 1, so a real tag is < 2^63 and can never
        // collide with the kNoAddr invalid sentinel in tags_.
        return addr >> setShift_;
    }

    CacheConfig cfg_;
    // Precomputed geometry: lineBytes and numSets are powers of two,
    // and hoisting the shift/mask out of access() turns four 64-bit
    // divisions per lookup into two shifts.
    unsigned lineShift_ = 0;
    unsigned setShift_ = 0; //!< lineShift_ + log2(numSets)
    std::uint64_t setMask_ = 0;
    // Way state, split SoA (row-major by set): the associative scan
    // touches only the contiguous tag words — 2-4 x 8 bytes in one
    // cache line — instead of striding over 24-byte structs; the
    // recency clock is only read on the miss path and written on
    // hits. tags_[i] == kNoAddr means the way is invalid.
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint32_t> mru_; // per-set most recently used way
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** Latencies of the memory system (Table 2 of the paper). */
struct MemoryConfig
{
    CacheConfig l1i{"l1i", 64u << 10, 2, 32};
    CacheConfig l1d{"l1d", 64u << 10, 2, 64};
    CacheConfig l2{"l2", 1u << 20, 4, 64};
    Cycle l1Latency = 1;
    Cycle l2Latency = 15;
    Cycle memLatency = 100;
};

/**
 * Two-level hierarchy with a unified L2 shared by instruction and
 * data sides. Returns total access latency in cycles.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MemoryConfig &cfg)
        : cfg_(cfg), l1i_(cfg.l1i), l1d_(cfg.l1d), l2_(cfg.l2)
    {}

    /** Instruction fetch of the line containing @p addr. */
    Cycle
    accessInst(Addr addr)
    {
        if (l1i_.access(addr))
            return cfg_.l1Latency;
        if (l2_.access(addr))
            return cfg_.l1Latency + cfg_.l2Latency;
        return cfg_.l1Latency + cfg_.l2Latency + cfg_.memLatency;
    }

    /** Data access of the line containing @p addr. */
    Cycle
    accessData(Addr addr)
    {
        if (l1d_.access(addr))
            return cfg_.l1Latency;
        if (l2_.access(addr))
            return cfg_.l1Latency + cfg_.l2Latency;
        return cfg_.l1Latency + cfg_.l2Latency + cfg_.memLatency;
    }

    /**
     * Host-side prefetch of the tag state a future accessData(@p
     * addr) will touch (both levels; the L2 probe only happens on an
     * L1 miss, but the hint is cheap and the model state untouched).
     */
    void
    prefetchData(Addr addr) const
    {
        l1d_.prefetch(addr);
        l2_.prefetch(addr);
    }

    /** Instruction-side analog of prefetchData (host hint only). */
    void
    prefetchInst(Addr addr) const
    {
        l1i_.prefetch(addr);
        l2_.prefetch(addr);
    }

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const MemoryConfig &config() const { return cfg_; }

    void
    resetStats()
    {
        l1i_.resetStats();
        l1d_.resetStats();
        l2_.resetStats();
    }

  private:
    MemoryConfig cfg_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
};

} // namespace sfetch

#endif // SFETCH_CACHE_CACHE_HH
