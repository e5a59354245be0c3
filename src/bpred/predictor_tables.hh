/**
 * @file
 * The two set-associative table algorithms the front ends share,
 * each written once and instantiated per payload:
 *
 *  - CascadedPredictor, the cascaded path-based next trace predictor
 *    of Jacobson, Rotenberg and Smith (MICRO 1997). The trace cache
 *    front end uses it for trace-level sequencing (first level
 *    1K-entry 4-way, second level 4K-entry 4-way, DOLC 9-4-7-9;
 *    tcache/trace_engine.hh). The paper's cascaded next stream
 *    predictor (Section 3.2 and Figure 5) is the same algorithm with
 *    a stream payload and a DOLC 12-2-4-10 hash (1K-entry 4-way plus
 *    6K-entry 3-way; core/stream_engine.hh). Given the current fetch
 *    address it returns the next unit's payload, replacing both the
 *    conditional predictor and the BTB/FTB of a conventional front
 *    end.
 *  - LruTable, a tagged set-associative table with tick LRU
 *    replacement: the BTB (bpred/btb.hh) and the FTB's fetch target
 *    buffer (fetch/ftb.hh).
 */

#ifndef SFETCH_BPRED_PREDICTOR_TABLES_HH
#define SFETCH_BPRED_PREDICTOR_TABLES_HH

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/dolc.hh"
#include "util/sat_counter.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace sfetch
{

/**
 * Geometry of a CascadedPredictor. Each payload declares the
 * paper's values as its kPaperConfig.
 */
struct CascadedConfig
{
    std::size_t firstEntries = 0;
    unsigned firstAssoc = 1;
    std::size_t secondEntries = 0;
    unsigned secondAssoc = 1;
    DolcSpec dolc;
    unsigned counterBits = 2; //!< hysteresis counter width
    /**
     * Ablation switch: disable the path-indexed second table, which
     * is then not built (secondEntries is ignored).
     */
    bool pathTableEnabled = true;
};

/**
 * The cascaded next unit predictor.
 *
 * Two tables: an address-indexed first table, and a path-indexed
 * second table using a DOLC hash of the current fetch address and
 * the previous units' path elements. On a double hit the
 * path-correlated table wins. Entries carry a hysteresis counter
 * implementing the paper's replacement policy, which is what lets
 * the stream predictor hold *overlapping* streams alive.
 *
 * The predictor maintains two path history registers: a speculative
 * lookup register updated at predict time, and an update register
 * maintained with committed units only; recoverHistory() copies the
 * committed register over the speculative one after a
 * misprediction, exactly as the paper describes.
 *
 * A Payload is the data predicted for one unit. It declares:
 *  - `Unit`, the committed unit (with a `start` address) it is built
 *    from by an explicit constructor, and `operator==`;
 *  - `static Addr pathId(const Unit &)`, the element the path
 *    registers record for a unit;
 *  - `kStatPrefix`, the prefix of the stat keys, and
 *    `kPaperConfig`, the default geometry;
 *  - `kPayloadBits`, its storage per entry, if storageBits() is used.
 */
template <class Payload>
class CascadedPredictor
{
  public:
    using Unit = typename Payload::Unit;

    /** Outcome of a prediction; the payload is valid on a hit. */
    struct Prediction : Payload
    {
        bool hit = false;
        bool fromPathTable = false; //!< second (path) table provided it
    };

    explicit CascadedPredictor(
        const CascadedConfig &cfg = Payload::kPaperConfig)
        : cfg_(cfg),
          first_(cfg.firstEntries, cfg.firstAssoc, cfg.counterBits),
          second_(cfg.pathTableEnabled ? cfg.secondEntries : 0,
                  cfg.secondAssoc, cfg.counterBits),
          specPath_(cfg.dolc), commitPath_(cfg.dolc)
    {
        assert(first_.numSets > 0);
        while ((1ULL << secondIndexBits_) < second_.numSets)
            ++secondIndexBits_;
    }

    /**
     * Predict the unit starting at @p start, using the speculative
     * path history. Does not modify history; call specPush()
     * afterwards with the accepted unit's path element.
     */
    Prediction
    predict(Addr start)
    {
        ++lookups_;
        ++tick_;

        // Compute both probe points up front and prefetch their tag
        // state so the two associative scans overlap their host
        // memory latencies instead of serializing them.
        const std::size_t set1 = firstSet(start);
        first_.prefetchSet(set1);
        Entry *e2 = nullptr;
        if (cfg_.pathTableEnabled) {
            const std::size_t set2 = secondSet(start, specPath_);
            second_.prefetchSet(set2);
            e2 = second_.find(set2, secondTag(start, specPath_), tick_);
        }
        Entry *e1 = first_.find(set1, firstTag(start), tick_);

        Prediction p;
        Entry *use = e2 ? e2 : e1;
        if (!use) {
            ++misses_;
            return p;
        }
        ++(e2 ? secondHits_ : firstHits_);
        static_cast<Payload &>(p) = use->data;
        p.hit = true;
        p.fromPathTable = e2 != nullptr;
        return p;
    }

    /** Record @p id in the speculative (lookup) path register. */
    void specPush(Addr id) { specPath_.push(id); }

    /**
     * Train with a completed unit, using the committed (update) path
     * register for second-table indexing, then record the unit in
     * the committed register.
     *
     * @param u The completed unit.
     * @param mispredicted True when the front end mispredicted this
     *        unit; triggers the upgrade-to-second-table rule.
     */
    void
    commit(const Unit &u, bool mispredicted)
    {
        ++tick_;
        const Payload data(u);

        const std::size_t set1 = firstSet(u.start);
        const std::uint64_t tag1 = firstTag(u.start);
        std::size_t set2 = 0;
        std::uint64_t tag2 = 0;
        first_.prefetchSet(set1);
        if (cfg_.pathTableEnabled) {
            set2 = secondSet(u.start, commitPath_);
            tag2 = secondTag(u.start, commitPath_);
            second_.prefetchSet(set2);
        }

        Entry *e1 = first_.find(set1, tag1, tick_);
        Entry *e2 = cfg_.pathTableEnabled
            ? second_.find(set2, tag2, tick_) : nullptr;

        if (e1)
            Table::updateEntry(*e1, data);
        else
            first_.install(set1, tag1, data, tick_);

        if (e2) {
            Table::updateEntry(*e2, data);
        } else if (mispredicted && cfg_.pathTableEnabled) {
            // Cascade insertion: only units the front end actually
            // mispredicts are upgraded into the path-correlated
            // table; units the first table predicts fine never
            // pollute it ("avoiding aliasing", Section 3.2).
            if (second_.install(set2, tag2, data, tick_))
                ++upgrades_;
        }

        commitPath_.push(Payload::pathId(u));
    }

    /** commit() under each front end's name for its unit. */
    void commitStream(const Unit &s, bool m) { commit(s, m); }
    void commitTrace(const Unit &t, bool m) { commit(t, m); }

    /** Misprediction repair: speculative register := committed. */
    void recoverHistory() { specPath_.copyFrom(commitPath_); }

    /** Storage accounting (bits), for Table 1 style comparisons. */
    std::uint64_t
    storageBits() const
    {
        // tag(~20) + payload + counter bits, per entry built.
        const std::uint64_t per_entry =
            20 + Payload::kPayloadBits + cfg_.counterBits;
        return (first_.ways.size() + second_.ways.size()) * per_entry;
    }

    /** Units installed into the second table by the cascade rule. */
    std::uint64_t upgrades() const { return upgrades_; }

    StatSet
    stats() const
    {
        const std::string p = Payload::kStatPrefix;
        StatSet s;
        s.set(p + "lookups", double(lookups_));
        s.set(p + "first_hits", double(firstHits_));
        s.set(p + "second_hits", double(secondHits_));
        s.set(p + "misses", double(misses_));
        const double denom = double(lookups_ ? lookups_ : 1);
        s.set(p + "hit_rate", double(firstHits_ + secondHits_) / denom);
        return s;
    }

  private:
    /** One way's payload (tag/valid live separately). */
    struct Entry
    {
        Payload data;
        SatCounter counter;
        std::uint64_t lastUse = 0;
    };

    /**
     * Set-associative table in structure-of-arrays form: the lookup
     * scan touches only the dense tag/valid arrays (the valid bytes
     * stay resident in the host cache; a whole set's tags share one
     * line), and the payload line is touched on hits alone. This
     * matters because every simulated prediction walks a
     * pseudo-random set of a multi-hundred-KB table.
     */
    struct Table
    {
        std::vector<std::uint64_t> tags;
        std::vector<std::uint8_t> valid;
        std::vector<Entry> ways;
        std::size_t numSets;
        unsigned assoc;

        Table(std::size_t entries, unsigned ways_per_set,
              unsigned counter_bits)
            : tags(entries, 0), valid(entries, 0),
              ways(entries,
                   Entry{Payload{}, SatCounter(counter_bits, 0), 0}),
              numSets(entries / ways_per_set), assoc(ways_per_set)
        {
            // A disabled table has no entries and is never probed.
            assert(entries % ways_per_set == 0);
            assert(!(numSets & (numSets - 1)));
        }

        /**
         * Host-side prefetch of a set's probe state, so a caller
         * that knows it will find() two tables can overlap their
         * memory latencies. No modelled state is touched.
         */
        void
        prefetchSet(std::size_t set) const
        {
#if defined(__GNUC__) || defined(__clang__)
            const std::size_t base = set * assoc;
            __builtin_prefetch(&tags[base], 0, 1);
            __builtin_prefetch(&valid[base], 0, 1);
#endif
        }

        Entry *
        find(std::size_t set, std::uint64_t tag, std::uint64_t tick)
        {
            const std::size_t base = set * assoc;
            for (unsigned w = 0; w < assoc; ++w) {
                if (valid[base + w] && tags[base + w] == tag) {
                    Entry &e = ways[base + w];
                    e.lastUse = tick;
                    return &e;
                }
            }
            return nullptr;
        }

        /**
         * Hysteresis-guarded install; returns true if installed. The
         * victim is the first invalid way, else the weakest counter,
         * least recently used among equals.
         */
        bool
        install(std::size_t set, std::uint64_t tag, const Payload &data,
                std::uint64_t tick)
        {
            const std::size_t base = set * assoc;
            std::size_t victim = base;
            for (unsigned w = 0; w < assoc; ++w) {
                const std::size_t i = base + w;
                if (!valid[i]) {
                    victim = i;
                    break;
                }
                const Entry &e = ways[i];
                const Entry &v = ways[victim];
                if (e.counter.value() < v.counter.value() ||
                    (e.counter.value() == v.counter.value() &&
                     e.lastUse < v.lastUse))
                    victim = i;
            }

            Entry &e = ways[victim];
            if (valid[victim] && e.counter.value() > 0) {
                // Hysteresis protects the resident unit; the
                // newcomer only weakens it.
                e.counter.decrement();
                return false;
            }
            valid[victim] = 1;
            tags[victim] = tag;
            e.data = data;
            e.counter.set(1);
            e.lastUse = tick;
            return true;
        }

        /** Hysteresis update of a hit entry with observed @p data. */
        static void
        updateEntry(Entry &e, const Payload &data)
        {
            if (e.data == data) {
                // Same unit observed again: strengthen.
                e.counter.increment();
                return;
            }
            // Conflicting unit for the same tag: weaken; replace the
            // payload only once the hysteresis counter drains to zero.
            e.counter.decrement();
            if (e.counter.value() == 0) {
                e.data = data;
                e.counter.set(1);
            }
        }
    };

    std::size_t
    firstSet(Addr start) const
    {
        return (start / kInstBytes) & (first_.numSets - 1);
    }

    std::uint64_t
    firstTag(Addr start) const
    {
        return (start / kInstBytes) / first_.numSets;
    }

    std::size_t
    secondSet(Addr start, const DolcHistory &path) const
    {
        return static_cast<std::size_t>(
            path.index(start, secondIndexBits_));
    }

    std::uint64_t
    secondTag(Addr start, const DolcHistory &path) const
    {
        // Tag disambiguates both address and path within the set.
        return (path.signature(start) >> 40) ^ (start / kInstBytes);
    }

    CascadedConfig cfg_;
    Table first_;
    Table second_;
    unsigned secondIndexBits_ = 0; //!< log2(second_.numSets)
    DolcHistory specPath_;
    DolcHistory commitPath_;
    std::uint64_t tick_ = 0;

    // stats
    std::uint64_t lookups_ = 0;
    std::uint64_t firstHits_ = 0;
    std::uint64_t secondHits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t upgrades_ = 0;
};

/** Geometry of an LruTable. */
struct LruTableConfig
{
    std::size_t entries = 2048; //!< paper: BTB and FTB 2048-entry
    unsigned assoc = 4;         //!< paper: 4-way
};

/**
 * The way of a set to replace under tick LRU: the last invalid way,
 * else the first least recently used one. @p set points at the
 * set's first way; a Way has `valid` and `lastUse` members, and a
 * valid way's lastUse is never 0.
 */
template <class Way>
unsigned
lruVictim(const Way *set, unsigned assoc)
{
    unsigned victim = 0;
    std::uint64_t oldest = UINT64_MAX;
    for (unsigned w = 0; w < assoc; ++w) {
        if (!set[w].valid) {
            victim = w;
            oldest = 0;
        } else if (set[w].lastUse < oldest) {
            oldest = set[w].lastUse;
            victim = w;
        }
    }
    return victim;
}

/**
 * Tagged set-associative table keyed by instruction address, with
 * LRU replacement. Payload is default-constructible and constructible
 * from the fields update() is given.
 */
template <class Payload>
class LruTable
{
  public:
    /** Result of a lookup; the payload is valid on a hit. */
    struct Lookup : Payload
    {
        bool hit = false;
    };

    explicit LruTable(const LruTableConfig &cfg = LruTableConfig{})
        : assoc_(cfg.assoc), numSets_(cfg.entries / cfg.assoc),
          ways_(cfg.entries)
    {
        assert(cfg.entries % cfg.assoc == 0);
        assert(numSets_ && !(numSets_ & (numSets_ - 1)));
    }

    /** Look up @p key; a hit becomes the most recently used way. */
    Lookup
    lookup(Addr key)
    {
        ++lookups_;
        Lookup r;
        if (const Way *way = touch(key)) {
            ++hits_;
            static_cast<Payload &>(r) = way->data;
            r.hit = true;
        }
        return r;
    }

    /**
     * Install, or refresh in place, the entry for @p key, its payload
     * built from @p fields.
     */
    template <class... Fields>
    void
    update(Addr key, Fields &&...fields)
    {
        Way *way = touch(key);
        if (!way) {
            Way *set = &ways_[setIndex(key) * assoc_];
            way = &set[lruVictim(set, assoc_)];
            way->tag = tagOf(key);
            way->lastUse = tick_;
            way->valid = true;
        }
        way->data = Payload(std::forward<Fields>(fields)...);
    }

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }

  private:
    struct Way
    {
        Addr tag = kNoAddr;
        Payload data;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::size_t
    setIndex(Addr key) const
    {
        return (key / kInstBytes) & (numSets_ - 1);
    }

    Addr tagOf(Addr key) const { return (key / kInstBytes) / numSets_; }

    /**
     * Advance the LRU clock and return the way holding @p key, now
     * the most recently used one, or nullptr on a miss.
     */
    Way *
    touch(Addr key)
    {
        ++tick_;
        Way *set = &ways_[setIndex(key) * assoc_];
        const Addr tag = tagOf(key);
        for (unsigned w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == tag) {
                set[w].lastUse = tick_;
                return &set[w];
            }
        }
        return nullptr;
    }

    unsigned assoc_;
    std::size_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t tick_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace sfetch

#endif // SFETCH_BPRED_PREDICTOR_TABLES_HH
