/**
 * @file
 * Structured sweep results: one ResultRow per (benchmark, SimConfig)
 * simulation, collected into a ResultSet with CSV and JSON emitters.
 * Benches aggregate their paper tables from a ResultSet instead of
 * ad-hoc printf loops, and `--format csv|json` dumps the raw rows for
 * offline analysis. CSV and JSON both round-trip the configuration —
 * rows carry the canonical engine spec string (`arch:key=v,...`) plus
 * the engine-agnostic knobs, written by hand once per format — and
 * the counters; engine-internal stats ride along in JSON only. The
 * counters are not named here: each is declared once in
 * SFETCH_SIM_STATS (pipeline/processor.hh), whose table gives its CSV
 * column and JSON key, so adding one is one line there.
 */

#ifndef SFETCH_SIM_RESULTS_HH
#define SFETCH_SIM_RESULTS_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "util/stats.hh"

namespace sfetch
{

/** Output selector for the shared --format option. */
enum class OutputFormat
{
    Table, //!< human-readable aggregate table (the default)
    Csv,   //!< raw rows, one CSV line each
    Json,  //!< raw rows as a JSON document
};

/** Parse "table"/"csv"/"json"; throws std::invalid_argument. */
OutputFormat parseFormat(const std::string &token);

/** One completed simulation run. */
struct ResultRow
{
    std::string bench;
    SimConfig cfg;
    SimStats stats;
    double wallSeconds = 0.0; //!< host wall-clock of this run
    /**
     * Whether the run replayed a shared arena rather than a private
     * window (host-side provenance, like wallSeconds; the rows are
     * bit-identical either way, and no emitter writes it).
     */
    bool sharedArena = false;
};

bool operator==(const ResultRow &a, const ResultRow &b);

/**
 * The single-line JSON object for one row — exactly the element
 * toJson() places in its "rows" array (sfetchd streams these as they
 * complete without re-implementing the schema). Concatenating
 * rowJson() outputs into a `{"wall_seconds": s, "rows": [...]}`
 * envelope yields a document fromJson() parses identically.
 */
std::string rowJson(const ResultRow &row);

/** An ordered collection of runs plus sweep-level metadata. */
class ResultSet
{
  public:
    void add(ResultRow row) { rows_.push_back(std::move(row)); }

    const std::vector<ResultRow> &rows() const { return rows_; }
    std::size_t size() const { return rows_.size(); }
    bool empty() const { return rows_.empty(); }
    const ResultRow &at(std::size_t i) const { return rows_.at(i); }

    /** Host wall-clock of the whole sweep (set by the driver). */
    double wallSeconds() const { return wallSeconds_; }
    void setWallSeconds(double s) { wallSeconds_ = s; }

    /** Rows satisfying @p pred, in order. */
    ResultSet
    where(const std::function<bool(const ResultRow &)> &pred) const;

    /** Extract one value per row satisfying @p pred. */
    std::vector<double>
    collect(const std::function<bool(const ResultRow &)> &pred,
            const std::function<double(const ResultRow &)> &get) const;

    /** Suite-level aggregate of @p get over rows matching @p pred. */
    double mean(MeanKind kind,
                const std::function<bool(const ResultRow &)> &pred,
                const std::function<double(const ResultRow &)> &get)
        const;

    /** One header line plus one line per row. */
    std::string toCsv() const;

    /** A single JSON document; includes engine-internal stats. */
    std::string toJson() const;

    /** sfetch::rowJson() for row @p i (bounds-checked). */
    std::string rowJson(std::size_t i) const;

    /** Parse toCsv() output. Throws std::runtime_error on malformed
     * input. Engine stats are not represented in CSV. */
    static ResultSet fromCsv(const std::string &text);

    /** Parse toJson() output. Throws std::runtime_error. */
    static ResultSet fromJson(const std::string &text);

  private:
    std::vector<ResultRow> rows_;
    double wallSeconds_ = 0.0;
};

/**
 * Shared tail of every bench main(): when @p fmt is csv or json,
 * print the raw rows to stdout and return true (the caller skips its
 * aggregate table); table format returns false.
 */
bool emitMachineReadable(const ResultSet &rs, OutputFormat fmt);

} // namespace sfetch

#endif // SFETCH_SIM_RESULTS_HH
