/**
 * @file
 * The cascaded next stream predictor (Section 3.2 and Figure 5 of
 * the paper). Given the current fetch address it returns the current
 * stream's length, terminator type, and the next stream's start
 * address, replacing both the conditional predictor and the BTB/FTB
 * of a conventional front end.
 *
 * Two tables: an address-indexed first table, and a path-indexed
 * second table using a DOLC hash (12-2-4-10) of the current fetch
 * address and previous stream start addresses. On a double hit the
 * path-correlated table wins. Entries carry a 2-bit hysteresis
 * counter implementing the paper's replacement policy, which is what
 * lets the predictor hold *overlapping* streams alive.
 *
 * The predictor maintains two path history registers: a speculative
 * lookup register updated at predict time, and an update register
 * maintained with committed streams only; recoverHistory() copies
 * the committed register over the speculative one after a
 * misprediction, exactly as the paper describes.
 */

#ifndef SFETCH_CORE_NSP_HH
#define SFETCH_CORE_NSP_HH

#include <vector>

#include "core/stream.hh"
#include "util/dolc.hh"
#include "util/sat_counter.hh"
#include "util/stats.hh"

namespace sfetch
{

/** Geometry of the next stream predictor (Table 2 of the paper). */
struct NspConfig
{
    std::size_t firstEntries = 1024; //!< paper: 1K-entry, 4-way
    unsigned firstAssoc = 4;
    std::size_t secondEntries = 6144; //!< paper: 6K-entry, 3-way
    unsigned secondAssoc = 3;
    DolcSpec dolc{12, 2, 4, 10};      //!< paper: DOLC 12-2-4-10
    unsigned counterBits = 2;
    /** Ablation switch: disable the path-indexed second table. */
    bool pathTableEnabled = true;
};

/** Outcome of a stream prediction. */
struct StreamPrediction
{
    bool hit = false;
    bool fromPathTable = false;  //!< second (path) table provided it
    std::uint32_t lenInsts = 0;
    BranchType endType = BranchType::None;
    Addr next = kNoAddr;
};

/** The cascaded next stream predictor. */
class NextStreamPredictor
{
  public:
    explicit NextStreamPredictor(const NspConfig &cfg = NspConfig{});

    const NspConfig &config() const { return cfg_; }

    /**
     * Predict the stream starting at @p start, using the speculative
     * path history. Does not modify history; call specPush()
     * afterwards with the accepted stream start.
     */
    StreamPrediction predict(Addr start);

    /** Record @p start in the speculative (lookup) path register. */
    void specPush(Addr start) { specPath_.push(start); }

    /**
     * Train with a completed stream, using the committed (update)
     * path register for second-table indexing, then record the
     * stream in the committed register.
     *
     * @param s The completed stream.
     * @param mispredicted True when the front end mispredicted this
     *        stream; triggers the upgrade-to-second-table rule.
     */
    void commitStream(const StreamDescriptor &s, bool mispredicted);

    /** Misprediction repair: speculative register := committed. */
    void recoverHistory() { specPath_.copyFrom(commitPath_); }

    /** Storage accounting (bits), for Table 1 style comparisons. */
    std::uint64_t storageBits() const;

    StatSet stats() const;

  private:
    /** Payload of one predictor entry (tag/valid live separately). */
    struct Entry
    {
        std::uint32_t lenInsts = 0;
        BranchType endType = BranchType::None;
        Addr next = kNoAddr;
        SatCounter counter{2, 0};
        std::uint64_t lastUse = 0;

        bool
        sameData(const StreamDescriptor &s) const
        {
            return lenInsts == s.lenInsts && next == s.next &&
                   endType == s.endType;
        }
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
        std::size_t numSets = 0;
        unsigned assoc = 0;

        void
        resize(std::size_t entries, unsigned counter_bits)
        {
            tags.assign(entries, 0);
            valid.assign(entries, 0);
            Entry blank;
            blank.counter = SatCounter(counter_bits, 0);
            ways.assign(entries, blank);
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

        Entry *find(std::size_t set, std::uint64_t tag,
                    std::uint64_t tick);
        /** Hysteresis-guarded install; returns true if installed. */
        bool install(std::size_t set, std::uint64_t tag,
                     const StreamDescriptor &s, std::uint64_t tick);
        /** Hysteresis update of an existing entry. */
        static void updateEntry(Entry &e, const StreamDescriptor &s);
    };

    std::size_t firstSet(Addr start) const;
    std::uint64_t firstTag(Addr start) const;
    std::size_t secondSet(Addr start, const DolcHistory &path) const;
    std::uint64_t secondTag(Addr start, const DolcHistory &path) const;

    NspConfig cfg_;
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
    std::uint64_t bothMiss_ = 0;
    std::uint64_t upgrades_ = 0;
};

} // namespace sfetch

#endif // SFETCH_CORE_NSP_HH
