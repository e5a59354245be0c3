/**
 * @file
 * The trace cache storage array with selective trace storage
 * (Ramirez et al., "red & blue traces", HPCA 2000): traces whose
 * blocks are entirely sequential in memory are redundant with the
 * instruction cache and are not stored, which is the configuration
 * the paper evaluates.
 */

#ifndef SFETCH_TCACHE_TRACE_CACHE_HH
#define SFETCH_TCACHE_TRACE_CACHE_HH

#include <vector>

#include "bpred/predictor_tables.hh"
#include "tcache/trace.hh"

namespace sfetch
{

/** Trace cache geometry. */
struct TraceCacheConfig
{
    std::uint64_t sizeBytes = 32u << 10; //!< paper: 32KB storage
    unsigned assoc = 2;                  //!< paper: 2-way
    std::uint32_t maxInsts = 16;         //!< trace length limit
    bool selectiveStorage = true;        //!< skip sequential traces
};

/** Set-associative trace storage, tagged by (start, dirs, numCond). */
class TraceCache
{
  public:
    explicit TraceCache(const TraceCacheConfig &cfg);

    /** Look up the exact trace predicted by the next trace predictor. */
    const TraceDescriptor *lookup(Addr start, std::uint32_t dir_bits,
                                  std::uint8_t num_cond);

    /**
     * Partial-matching support: return any resident trace with the
     * given start address (most recently used first), regardless of
     * its embedded directions. The caller consumes the prefix that
     * agrees with its prediction. The paper reports this
     * optimization *hurts* with layout-optimized codes (footnote 3);
     * it is off by default and exercised by an ablation bench.
     */
    const TraceDescriptor *lookupAnyDirections(Addr start);

    /**
     * Insert a completed trace. Sequential traces are rejected when
     * selective storage is enabled. @return true if stored.
     */
    bool insert(const TraceDescriptor &trace);

    std::size_t numEntries() const { return entries_; }
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t inserts() const { return inserts_; }
    std::uint64_t rejectedSequential() const { return rejected_; }

  private:
    struct Way
    {
        TraceDescriptor trace;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::size_t setIndex(Addr start) const;

    TraceCacheConfig cfg_;
    std::size_t entries_;
    std::size_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t tick_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t rejected_ = 0;
};

} // namespace sfetch

#endif // SFETCH_TCACHE_TRACE_CACHE_HH
