/**
 * @file
 * Simulator-throughput benchmark: how fast the simulator itself runs,
 * measured as simulated Minsts/sec and Mcycles/sec per engine. This
 * is the harness behind the repo's performance trajectory
 * (BENCH_throughput.json): every hot-loop change is judged against
 * the numbers it emits, and CI runs it as a smoke step so the JSON is
 * always available as an artifact.
 *
 * The binary also instruments global operator new to report
 * steady-state heap allocations per simulated cycle — the
 * zero-allocation hot loop contract makes this ~0 (the residue is
 * end-of-run statistics assembly), where the pre-refactor simulator
 * sat at ~3.6 allocations per cycle.
 *
 * Schema v3 (sfetch-throughput-v3) over v2:
 *  - rows run with the exact instruction-boundary stop, so
 *    `committed_insts` is exactly --insts on every row (v2 rows
 *    jittered by the final commit cycle's overshoot, up to width-1,
 *    making Minsts/s denominators subtly incomparable);
 *  - each row carries `cov_seconds`, the coefficient of variation
 *    (stddev/mean) of the rep wall-clocks, so a consumer can tell a
 *    quiet measurement from a noisy one instead of trusting the
 *    best-rep point blindly;
 *  - a `gates` object embeds the allocation budgets the binaries
 *    enforce (util/alloc_gates.hh), so the CI gate reads the same
 *    numbers the unit test asserts.
 * From v2: one row per (bench, engine, oracle mode) with the default
 * bench set covering every registered workload family, and the
 * `sweep` amortization object (3 engines x 2 widths through
 * SweepDriver, live vs arena, decode cost included). A row with
 * `"arena": false` generates live into the run's private
 * committed-path window; `"arena": true` refills that window from
 * the shared arena, so its time includes the expansion.
 *
 * Methodology: each (benchmark, engine) point is run `--reps` times
 * serially on a cached workload after one untimed warmup run; the
 * best wall-clock rep is reported (the sensible statistic on a noisy
 * machine — the minimum is the run with the least interference), and
 * cov_seconds reports the spread across all reps.
 *
 * Usage: perf_throughput [--insts N] [--warmup N] [--bench name,...]
 *                        [--arch SPEC,...] [--reps N] [--out FILE]
 *                        [--no-sweep]
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cli.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/workload_cache.hh"
#include "util/alloc_gates.hh"
#include "util/alloc_hook.hh"
#include "util/table.hh"

using namespace sfetch;

namespace
{

struct Row
{
    std::string bench;
    std::string spec;
    unsigned width = 0;
    bool optimized = true;
    bool arena = false;
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    double bestSeconds = 0.0;
    /** Coefficient of variation (stddev/mean) of the rep times. */
    double covSeconds = 0.0;
    double allocsPerCycle = 0.0;
};

/** Result of the multi-point sweep amortization measurement. */
struct SweepResult
{
    bool measured = false;
    std::string bench;
    std::vector<std::string> archs;
    std::vector<unsigned> widths;
    std::size_t points = 0;
    double liveSeconds = 0.0;
    /** Replay-only sweep wall (the decode was already cached). */
    double replaySeconds = 0.0;
    /** One cold decode of the shared arena, measured separately. */
    double decodeSeconds = 0.0;

    /** End-to-end arena wall: one decode plus the replay sweep. */
    double arenaSeconds() const
    {
        return replaySeconds + decodeSeconds;
    }

    double
    speedup() const
    {
        return arenaSeconds() > 0.0 ? liveSeconds / arenaSeconds()
                                    : 0.0;
    }
};

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

Row
measure(const PlacedWorkload &work, const SimConfig &cfg,
        unsigned reps, const OracleArena *arena,
        const RunTuning &tuning)
{
    Row row;
    row.bench = work.name();
    row.spec = cfg.specText();
    row.width = cfg.width;
    row.optimized = cfg.optimizedLayout;
    row.arena = arena != nullptr;

    runOn(work, cfg, arena, tuning); // untimed warmup run

    row.bestSeconds = 1e100;
    std::vector<double> times;
    times.reserve(reps);
    for (unsigned r = 0; r < reps; ++r) {
        std::uint64_t a0 = allocCount();
        double t0 = nowSeconds();
        SimStats st = runOn(work, cfg, arena, tuning);
        double secs = nowSeconds() - t0;
        std::uint64_t a1 = allocCount();
        times.push_back(secs);
        row.cycles = st.cycles;
        row.committed = st.committedInsts;
        if (secs < row.bestSeconds) {
            row.bestSeconds = secs;
            row.allocsPerCycle =
                st.cycles ? double(a1 - a0) / double(st.cycles) : 0.0;
        }
    }

    // Spread across reps: stddev/mean. 0 for a single rep.
    double mean = 0.0;
    for (double t : times)
        mean += t;
    mean /= double(times.size());
    double var = 0.0;
    for (double t : times)
        var += (t - mean) * (t - mean);
    var /= double(times.size());
    row.covSeconds = mean > 0.0 ? std::sqrt(var) / mean : 0.0;
    return row;
}

/**
 * The multi-point amortization measurement: one shared-workload grid
 * through the sweep driver, per-point live generation vs the shared
 * arena. The arena sweep itself replays a cached decode (the per-row
 * phase — like any earlier sweep in a process — has already built
 * it), so the decode is measured separately with a *fresh*, uncached
 * OracleArena construction and added on: arena_seconds = one cold
 * decode + the replay sweep, the end-to-end cost a fig8/table3 user
 * pays the first time. Best of @p reps sweeps per mode, interleaved.
 */
SweepResult
measureSweep(InstCount insts, InstCount warmup, unsigned reps)
{
    SweepResult sr;
    sr.measured = true;
    sr.bench = "gzip";
    sr.archs = {"stream", "trace", "ev8"};
    sr.widths = {4, 8};

    std::vector<SimConfig> cfgs;
    for (const std::string &arch : sr.archs) {
        for (unsigned w : sr.widths) {
            SimConfig cfg(arch);
            cfg.width = w;
            cfg.insts = insts;
            cfg.warmupInsts = warmup;
            cfgs.push_back(cfg);
        }
    }
    auto points = SweepDriver::grid({sr.bench}, cfgs);
    sr.points = points.size();

    // Workload build is shared by both modes: force it up front so
    // neither measured sweep pays it.
    const PlacedWorkload &work = WorkloadCache::instance().get(sr.bench);

    // The decode cost, measured cold: construct a fresh arena
    // directly rather than through the PlacedWorkload cache (which
    // the per-row phase has already warmed).
    {
        double t0 = nowSeconds();
        OracleArena decode(work.image(true), work.model(), kRefSeed,
                           insts + warmup + kFetchAheadMargin);
        sr.decodeSeconds = nowSeconds() - t0;
    }

    sr.liveSeconds = 1e100;
    sr.replaySeconds = 1e100;
    for (unsigned r = 0; r < reps; ++r) {
        for (bool arena : {false, true}) {
            SweepDriver driver(1);
            driver.setQuiet(true);
            driver.setArenaMode(arena);
            double t0 = nowSeconds();
            driver.run(points);
            double secs = nowSeconds() - t0;
            double &best = arena ? sr.replaySeconds : sr.liveSeconds;
            if (secs < best)
                best = secs;
        }
    }
    return sr;
}

void
writeJson(const std::string &path, const std::vector<Row> &rows,
          const SweepResult &sweep, InstCount insts, InstCount warmup,
          unsigned reps)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "{\n  \"schema\": \"sfetch-throughput-v3\",\n");
    std::fprintf(f, "  \"insts\": %llu,\n  \"warmup\": %llu,\n",
                 static_cast<unsigned long long>(insts),
                 static_cast<unsigned long long>(warmup));
    std::fprintf(f, "  \"reps\": %u,\n", reps);
    // The allocation budgets enforced by tests/test_perf_alloc.cc
    // and checked by the CI gate, from the one shared header.
    std::fprintf(f,
                 "  \"gates\": {\"allocs_per_cycle\": %.4f, "
                 "\"steady_state_alloc_slack\": %llu},\n",
                 kAllocsPerCycleGate,
                 static_cast<unsigned long long>(
                     kSteadyStateAllocSlack));
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(
            f,
            "    {\"bench\": \"%s\", \"spec\": \"%s\", "
            "\"width\": %u, \"layout\": \"%s\", \"arena\": %s, "
            "\"cycles\": %llu, \"committed_insts\": %llu, "
            "\"best_seconds\": %.6f, \"cov_seconds\": %.4f, "
            "\"minsts_per_sec\": %.3f, \"mcycles_per_sec\": %.3f, "
            "\"allocs_per_cycle\": %.4f}%s\n",
            r.bench.c_str(), r.spec.c_str(), r.width,
            r.optimized ? "opt" : "base",
            r.arena ? "true" : "false",
            static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(r.committed),
            r.bestSeconds, r.covSeconds,
            r.committed / r.bestSeconds / 1e6,
            r.cycles / r.bestSeconds / 1e6, r.allocsPerCycle,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
    if (sweep.measured) {
        std::string archs, widths;
        for (std::size_t i = 0; i < sweep.archs.size(); ++i)
            archs += (i ? "\", \"" : "\"") + sweep.archs[i] +
                     (i + 1 == sweep.archs.size() ? "\"" : "");
        for (std::size_t i = 0; i < sweep.widths.size(); ++i)
            widths += (i ? ", " : "") +
                      std::to_string(sweep.widths[i]);
        std::fprintf(
            f,
            ",\n  \"sweep\": {\n"
            "    \"bench\": \"%s\", \"archs\": [%s], "
            "\"widths\": [%s], \"points\": %zu,\n"
            "    \"live_seconds\": %.6f, "
            "\"decode_seconds\": %.6f, "
            "\"replay_seconds\": %.6f, "
            "\"arena_seconds\": %.6f, "
            "\"arena_speedup\": %.3f\n  }",
            sweep.bench.c_str(), archs.c_str(), widths.c_str(),
            sweep.points, sweep.liveSeconds, sweep.decodeSeconds,
            sweep.replaySeconds, sweep.arenaSeconds(),
            sweep.speedup());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
}

int
run(int argc, char **argv)
{
    CliOptions opts;
    opts.insts = 1'500'000;
    // One member per registered workload family, so the perf
    // trajectory covers every workload shape the registry offers.
    opts.benches = {"gzip", "loops", "server", "thrash", "phased"};

    unsigned reps = 3;
    bool do_sweep = true;
    RunTuning tuning;
    // Exact-boundary stop: every row commits exactly --insts, so the
    // Minsts/s denominators are identical across rows (v2 rows
    // jittered by the final cycle's overshoot).
    tuning.exactInstStop = true;
    std::string out = "BENCH_throughput.json";

    CliParser cli("perf_throughput",
                  "Simulator throughput (simulated Minsts/sec and "
                  "Mcycles/sec) per engine, plus steady-state "
                  "allocations per cycle and the sweep-level arena "
                  "amortization");
    cli.addStandard(&opts, CliParser::kInsts | CliParser::kBench |
                               CliParser::kArch | CliParser::kWarmup);
    cli.addOption("--reps", "N", "timed repetitions per point (best "
                  "rep is reported; default 3)",
                  [&](const std::string &v) {
                      reps = static_cast<unsigned>(std::stoul(v));
                  });
    cli.addOption("--out", "FILE",
                  "output JSON path (default BENCH_throughput.json)",
                  [&](const std::string &v) { out = v; });
    cli.addFlag("--no-sweep",
                "skip the multi-point sweep amortization measurement",
                [&] { do_sweep = false; });
    cli.parseOrExit(argc, argv);
    opts.benches = resolveBenches(opts.benches);
    if (reps == 0)
        reps = 1;

    // Default engine set: the paper's four plus the seq baseline, so
    // the trajectory covers every registered engine family.
    std::vector<SimConfig> archs = opts.archs;
    if (archs.empty()) {
        archs = paperArchConfigs();
        archs.push_back(SimConfig("seq"));
    }

    const InstCount warmup = opts.warmupFor(opts.insts);
    std::vector<Row> rows;
    for (const std::string &bench : opts.benches) {
        const PlacedWorkload &work =
            WorkloadCache::instance().get(bench);
        // Decode once per bench; the per-row arena measurements
        // share it, exactly like sweep points do.
        auto arena =
            work.arena(true, opts.insts + warmup + kFetchAheadMargin);
        for (const SimConfig &arch : archs) {
            const SimConfig cfg = opts.stamped(arch);
            rows.push_back(measure(work, cfg, reps, nullptr, tuning));
            rows.push_back(
                measure(work, cfg, reps, arena.get(), tuning));
        }
    }

    SweepResult sweep;
    if (do_sweep)
        sweep = measureSweep(opts.insts, warmup, reps);

    writeJson(out, rows, sweep, opts.insts, warmup, reps);

    std::printf("Simulator throughput (%llu measured insts, "
                "best of %u reps)\n\n",
                static_cast<unsigned long long>(opts.insts), reps);
    TablePrinter tp;
    tp.addHeader({"bench", "engine", "oracle", "Minsts/s",
                  "Mcycles/s", "cov", "sim IPC", "allocs/cycle"});
    for (const Row &r : rows) {
        tp.addRow({r.bench, r.spec, r.arena ? "arena" : "live",
                   TablePrinter::fmt(
                       r.committed / r.bestSeconds / 1e6, 2),
                   TablePrinter::fmt(r.cycles / r.bestSeconds / 1e6,
                                     2),
                   TablePrinter::fmt(r.covSeconds, 3),
                   TablePrinter::fmt(double(r.committed) /
                                         double(r.cycles)),
                   TablePrinter::fmt(r.allocsPerCycle, 4)});
    }
    std::fputs(tp.render().c_str(), stdout);
    if (sweep.measured) {
        std::printf(
            "\nsweep amortization (%zu points: %s, widths 4+8): "
            "live %.2fs, arena %.2fs (one cold decode %.3fs + "
            "replay %.2fs) -> %.2fx\n",
            sweep.points, sweep.bench.c_str(), sweep.liveSeconds,
            sweep.arenaSeconds(), sweep.decodeSeconds,
            sweep.replaySeconds, sweep.speedup());
    }
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain("perf_throughput", [&] { return run(argc, argv); });
}
