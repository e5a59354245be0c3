/**
 * @file
 * SweepDriver: the shared simulation driver behind every bench and
 * example binary. It takes a list of (benchmark, SimConfig) points,
 * builds each PlacedWorkload once (through WorkloadCache), and runs
 * the points on a std::thread pool. Every run owns its
 * MemoryHierarchy, engine and Processor and reads the shared workload
 * image read-only, so parallel execution is guaranteed bit-identical
 * to serial execution: the ResultSet rows come back in point order
 * with the exact SimStats a `--jobs 1` run would produce.
 */

#ifndef SFETCH_SIM_DRIVER_HH
#define SFETCH_SIM_DRIVER_HH

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "sim/results.hh"

namespace sfetch
{

class PlacedWorkload;

/** One cell of a sweep grid. */
struct SweepPoint
{
    std::string bench;
    SimConfig cfg;
};

/**
 * One committed-path arena a sweep shares: the points (indices into
 * the sweep) that agree on canonical workload, layout and run length,
 * and the arena entries they need.
 */
struct ArenaGroup
{
    std::string bench; //!< canonical bench spec
    bool optimized = true;
    InstCount entries = 0; //!< insts + warmup + kFetchAheadMargin
    std::vector<std::size_t> points;
};

/**
 * The share-or-window rule, in one place: points are grouped by
 * (canonical workload, layout, insts + warmup), and every group of
 * two or more points shares one decoded arena. Every other point
 * decodes a private window as it runs — a shared decode would cost
 * exactly one generation pass and save none. The sweep driver builds
 * these groups' arenas; estimatedArenaBytes() prices the same groups
 * for sfetchd's memory governor.
 */
std::vector<ArenaGroup>
sharedArenaGroups(const std::vector<SweepPoint> &points);

/**
 * sfetchd's admission estimate for a sweep of @p points: one decoded
 * arena per sharedArenaGroups() group, at kArenaBytesPerInstEstimate
 * (sim/experiment.hh) bytes per entry, saturating at SIZE_MAX. The
 * true cost after decode, each layout's control part plus once per
 * workload the data stream both layouts read
 * (PlacedWorkload::arenaBytesResident()), is deliberately lower.
 */
std::size_t estimatedArenaBytes(const std::vector<SweepPoint> &points);

class SweepDriver
{
  public:
    /**
     * @param jobs Worker threads, the calling thread included (a
     * sweep spawns jobs - 1); 0 picks hardware_concurrency(). Pass 1
     * to force serial in-thread execution.
     */
    explicit SweepDriver(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /** Suppress the stderr progress/wall-clock report. */
    void setQuiet(bool quiet) { quiet_ = quiet; }

    /**
     * Enable/disable committed-path arena sharing (default on).
     * When enabled, every sharedArenaGroups() group gets the
     * workload's shared OracleArena — the committed path is decoded
     * once and each point's window is refilled from it. The other
     * points, and every point when disabled, decode into their window
     * as they run. Rows are bit-identical either way; each row's
     * sharedArena records which one it ran on.
     */
    void setArenaMode(bool enabled) { arenaMode_ = enabled; }
    bool arenaMode() const { return arenaMode_; }

    /** Cross product: every benchmark against every config. */
    static std::vector<SweepPoint>
    grid(const std::vector<std::string> &benches,
         const std::vector<SimConfig> &cfgs);

    /**
     * Per-row completion callback for the streaming run() overload:
     * called once per finished sweep point with the completed row,
     * its point index, and the total point count. Invocations are
     * serialized under an internal mutex but arrive in *completion*
     * order (point order when jobs() == 1); the returned ResultSet
     * keeps point order regardless. The row reference is only valid
     * for the duration of the call.
     */
    using RowCallback = std::function<void(
        const ResultRow &row, std::size_t point, std::size_t of)>;

    /**
     * Execute all points and return their rows in point order.
     * Workloads are cached; points with the same benchmark share one
     * PlacedWorkload. Reports the sweep wall-clock on stderr (and in
     * ResultSet::wallSeconds) unless quiet.
     */
    ResultSet run(const std::vector<SweepPoint> &points);

    /**
     * As run(points), additionally delivering each row through
     * @p onRow the moment its point finishes — long sweeps stream
     * incremental results (sfetchd's row streaming) instead of going
     * dark until the last point lands. The callback rows and the
     * returned rows are the same objects with the same bit-identical
     * stats; a null callback is equivalent to run(points).
     */
    ResultSet run(const std::vector<SweepPoint> &points,
                  const RowCallback &onRow);

    /**
     * Cooperative cancellation: when @p stop is non-null, run()
     * checks it between units of work (workload builds, arena
     * decodes, sweep points) and skips everything not yet started
     * once it reads true. Completed points still stream and are
     * returned — the ResultSet simply ends short (rows keep point
     * order; cancelled points are absent). The pointed-to flag must
     * outlive run(). Pass nullptr to clear.
     */
    void setStopFlag(const std::atomic<bool> *stop) { stop_ = stop; }

    /**
     * Parallel map over cached workloads, for measurements that are
     * not plain runOn() sweeps (oracle walks, custom layouts). Calls
     * @p fn(workload, index) once per benchmark on the pool; @p fn
     * must only write to per-index state.
     */
    void forEachWorkload(
        const std::vector<std::string> &benches,
        const std::function<void(const PlacedWorkload &, std::size_t)>
            &fn);

  private:
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    unsigned jobs_;
    bool quiet_ = false;
    bool arenaMode_ = true;
    const std::atomic<bool> *stop_ = nullptr;
    double lastWall_ = 0.0;
};

} // namespace sfetch

#endif // SFETCH_SIM_DRIVER_HH
