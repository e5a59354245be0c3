#include "sim/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <new>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "sim/workload_cache.hh"
#include "workload/workload_registry.hh"

namespace sfetch
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

bool
stderrIsTty()
{
#ifndef _WIN32
    return isatty(2) != 0;
#else
    return false;
#endif
}

} // namespace

std::vector<ArenaGroup>
sharedArenaGroups(const std::vector<SweepPoint> &points)
{
    using Key = std::tuple<std::string, bool, InstCount>;
    std::map<Key, std::vector<std::size_t>> by_key;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SimConfig &cfg = points[i].cfg;
        by_key[Key{canonicalBenchSpec(points[i].bench),
                   cfg.optimizedLayout,
                   cfg.insts + cfg.warmupInsts}]
            .push_back(i);
    }
    std::vector<ArenaGroup> groups;
    for (auto &[key, members] : by_key) {
        if (members.size() < 2)
            continue;
        groups.push_back({std::get<0>(key), std::get<1>(key),
                          std::get<2>(key) + kFetchAheadMargin,
                          std::move(members)});
    }
    return groups;
}

std::size_t
estimatedArenaBytes(const std::vector<SweepPoint> &points)
{
    std::size_t est = 0, bytes = 0;
    // Saturate: a wrapped estimate would admit arenas that can never
    // fit.
    for (const ArenaGroup &g : sharedArenaGroups(points))
        if (__builtin_mul_overflow(g.entries, kArenaBytesPerInstEstimate,
                                   &bytes) ||
            __builtin_add_overflow(est, bytes, &est))
            return SIZE_MAX;
    return est;
}

SweepDriver::SweepDriver(unsigned jobs) : jobs_(jobs)
{
    if (jobs_ == 0) {
        jobs_ = std::thread::hardware_concurrency();
        if (jobs_ == 0)
            jobs_ = 1;
    }
}

std::vector<SweepPoint>
SweepDriver::grid(const std::vector<std::string> &benches,
                  const std::vector<SimConfig> &cfgs)
{
    std::vector<SweepPoint> points;
    points.reserve(benches.size() * cfgs.size());
    for (const std::string &bench : benches)
        for (const SimConfig &cfg : cfgs)
            points.push_back({bench, cfg});
    return points;
}

void
SweepDriver::parallelFor(std::size_t n,
                         const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex err_mu;
    std::exception_ptr first_error;

    auto worker = [&] {
        while (true) {
            std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mu);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    // The calling thread is one of the workers: it simulates instead
    // of idling in join(), so a sweep of N threads spawns N - 1.
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

ResultSet
SweepDriver::run(const std::vector<SweepPoint> &points)
{
    return run(points, RowCallback{});
}

ResultSet
SweepDriver::run(const std::vector<SweepPoint> &points,
                 const RowCallback &onRow)
{
    auto t0 = std::chrono::steady_clock::now();
    auto stopped = [this] {
        return stop_ && stop_->load(std::memory_order_relaxed);
    };

    // Phase 1: build each distinct workload and place each layout
    // its points read exactly once, in parallel. Later runOn() calls
    // then only ever read the cache.
    std::set<std::pair<std::string, bool>> unique;
    for (const SweepPoint &p : points)
        unique.insert({p.bench, p.cfg.optimizedLayout});
    std::vector<std::pair<std::string, bool>> layouts(unique.begin(),
                                                      unique.end());
    parallelFor(layouts.size(), [&](std::size_t i) {
        if (stopped())
            return;
        WorkloadCache::instance()
            .get(layouts[i].first)
            .image(layouts[i].second);
    });
    double prep = secondsSince(t0);

    // Phase 1.5: decode each shared committed path exactly once;
    // its group's points then refill their windows from it instead
    // of each decoding the path again.
    std::vector<ArenaGroup> groups;
    if (arenaMode_)
        groups = sharedArenaGroups(points);
    std::vector<std::shared_ptr<const OracleArena>> arenas(groups.size());
    parallelFor(groups.size(), [&](std::size_t i) {
        if (stopped())
            return;
        try {
            arenas[i] = WorkloadCache::instance()
                            .get(groups[i].bench)
                            .arena(groups[i].optimized,
                                   groups[i].entries);
        } catch (const std::bad_alloc &) {
            // Decode memory was not to be had: this group's points
            // decode private windows instead — bit-identical rows.
        }
    });
    std::vector<const OracleArena *> point_arena(points.size(), nullptr);
    for (std::size_t g = 0; g < groups.size(); ++g)
        for (std::size_t i : groups[g].points)
            point_arena[i] = arenas[g].get();
    double decode = secondsSince(t0) - prep;

    // Phase 2: the sweep itself. Rows are written by point index, so
    // the output order (and content) is independent of scheduling.
    std::vector<ResultRow> rows(points.size());
    std::vector<char> finished(points.size(), 0);
    std::size_t done = 0;
    std::mutex progress_mu;
    const bool progress = !quiet_ && stderrIsTty();
    parallelFor(points.size(), [&](std::size_t i) {
        if (stopped())
            return;
        const SweepPoint &p = points[i];
        const PlacedWorkload &work =
            WorkloadCache::instance().get(p.bench);
        const OracleArena *arena = point_arena[i];
        auto rt0 = std::chrono::steady_clock::now();
        SimStats st = runOn(work, p.cfg, arena);
        ResultRow &row = rows[i];
        row.bench = p.bench;
        row.cfg = p.cfg;
        row.stats = st;
        row.wallSeconds = secondsSince(rt0);
        row.sharedArena = arena != nullptr;
        finished[i] = 1;
        if (onRow || progress) {
            // Deliver and print under one lock so callbacks are
            // serialized and the counter on the terminal can only
            // move forward.
            std::lock_guard<std::mutex> lock(progress_mu);
            if (onRow)
                onRow(row, i, points.size());
            if (progress) {
                ++done;
                std::fprintf(stderr, "\r  sweep %zu/%zu", done,
                             points.size());
                if (done == points.size())
                    std::fputc('\n', stderr);
                std::fflush(stderr);
            }
        }
    });

    // Point order survives any scheduling (and any cancellation):
    // rows land by index, and unfinished points are simply absent.
    ResultSet rs;
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (finished[i])
            rs.add(std::move(rows[i]));
    lastWall_ = secondsSince(t0);
    rs.setWallSeconds(lastWall_);
    if (!quiet_)
        std::fprintf(stderr,
                     "driver: %zu runs on %u thread%s, wall %.2fs "
                     "(workload build %.2fs, arena decode %.2fs, "
                     "%zu arena%s)\n",
                     points.size(), jobs_, jobs_ == 1 ? "" : "s",
                     lastWall_, prep, decode, groups.size(),
                     groups.size() == 1 ? "" : "s");
    return rs;
}

void
SweepDriver::forEachWorkload(
    const std::vector<std::string> &benches,
    const std::function<void(const PlacedWorkload &, std::size_t)>
        &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    parallelFor(benches.size(), [&](std::size_t i) {
        fn(WorkloadCache::instance().get(benches[i]), i);
    });
    lastWall_ = secondsSince(t0);
    if (!quiet_)
        std::fprintf(stderr,
                     "driver: %zu workloads on %u thread%s, wall "
                     "%.2fs\n",
                     benches.size(), jobs_, jobs_ == 1 ? "" : "s",
                     lastWall_);
}

} // namespace sfetch
