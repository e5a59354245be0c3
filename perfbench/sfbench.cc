/**
 * @file
 * sfbench: the measuring half of the repo benchmark (perfbench/run.py
 * builds and drives it). It times calls into the simulator's public
 * API from outside and writes one JSON document to stdout.
 *
 *   sfbench offline ...  In-process sweep of the fixed grid below.
 *                        Set-up is WorkloadCache::get for every bench
 *                        plus PlacedWorkload::arena for every (bench,
 *                        layout) on a cleared cache, timed in samples of
 *                        several back-to-back cold set-ups. The measured
 *                        phase calls SweepDriver::run over the grid
 *                        until --seconds have passed, timing each row's
 *                        arrival through the RowCallback. Every repeat
 *                        sweep must reproduce the first one's rows, and
 *                        a seeded sample of points re-run live through
 *                        runOn() must match its arena row.
 *
 *   sfbench client ...   Closed-loop sfetchd client: --clients
 *                        connections, each a ServeClient submitting
 *                        the next request of a fixed list and waiting
 *                        for its summary before sending another. With
 *                        --reference, every distinct point of the list
 *                        is also run offline through SweepDriver and
 *                        every served row must equal it byte for byte
 *                        (wall_seconds masked).
 *
 * Both sample the host speed (see hostSpeed()) before and after their
 * measured phase. With --trace 1 spans are recorded around those calls,
 * kept in memory and written with the result: workload.build,
 * layout.decode, sim.setup, sim.sweep and pipeline.run offline;
 * serve.submit with serve.ack / serve.row / serve.done children on the
 * client. Only every other sweep or job is traced, so the result also
 * carries the untraced twin that the tracing overhead is measured
 * against.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hh"
#include "serve/jsonio.hh"
#include "sim/cli.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/workload_cache.hh"

using namespace sfetch;

namespace
{

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/** Seconds since the harness started. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

std::string
num(double v)
{
    return jsonNumber(v);
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

unsigned
cores()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Host peak resident set of this process, MiB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/** A row's JSON with its trailing host wall-clock cut off: the rest
 * is simulated output and must repeat byte for byte. */
std::string
maskWall(const std::string &row)
{
    const std::size_t pos = row.rfind("\"wall_seconds\"");
    if (pos == std::string::npos)
        throw std::runtime_error("row without wall_seconds: " + row);
    return row.substr(0, pos);
}

/** The verbatim `"row"` object inside a served row frame (the frame
 * writer puts it last, so it runs to the frame's closing brace). */
std::string
rowText(const std::string &frame)
{
    const std::size_t key = frame.find("\"row\":");
    const std::size_t open =
        key == std::string::npos ? key : frame.find('{', key);
    const std::size_t close = frame.rfind('}');
    if (open == std::string::npos || close == std::string::npos ||
        close <= open)
        throw std::runtime_error("malformed row frame: " + frame);
    return frame.substr(open, close - open);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span
{
    std::uint64_t id;
    std::uint64_t parent; //!< 0 = root
    std::uint64_t job;    //!< spans of one job or sweep share it
    const char *name;
    double t0;
    double t1;
};

/** In-memory span store, written out once at exit. Ids are handed
 * out before a span closes, so children can name a parent that is
 * still open. */
class Tracer
{
  public:
    std::uint64_t newId() { return next_.fetch_add(1); }

    void
    record(std::uint64_t id, std::uint64_t parent, std::uint64_t job,
           const char *name, double t0, double t1)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({id, parent, job, name, t0, t1});
    }

    std::string
    json() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::string out = "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out += (i ? ",\n  [" : "\n  [") + num(s.id) + ", " +
                   num(s.parent) + ", " + num(s.job) + ", " +
                   jsonQuote(s.name) + ", " + num(s.t0) + ", " +
                   num(s.t1) + "]";
        }
        return out + "]";
    }

  private:
    std::atomic<std::uint64_t> next_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

Tracer gTracer;

/** Seconds one record() costs, measured on a scratch store: the
 * tracing overhead bound the span checks are held to. */
double
spanCostSeconds()
{
    Tracer scratch;
    constexpr int kN = 20000;
    const double t0 = now();
    for (int i = 0; i < kN; ++i) {
        const double t = now();
        scratch.record(scratch.newId(), 0, 0, "span.cost", t, now());
    }
    return (now() - t0) / kN;
}

/** Run @p fn(i) for i in [0, n) on @p threads threads. */
template <typename Fn>
void
parallelFor(std::size_t n, unsigned threads, Fn fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::max(1u, threads); ++t)
        pool.emplace_back([&] {
            for (std::size_t i; (i = next.fetch_add(1)) < n;)
                fn(i);
        });
    for (std::thread &t : pool)
        t.join();
}

/** One fixed unit of host work: a dependent walk over a 16 KiB table
 * with data-dependent branches. Of the table sizes tried (16 KiB to
 * 4 MiB), the L1-resident one tracked the sweep's own speed drift
 * best; larger tables over-react to memory contention. */
std::uint64_t
calibrationUnit(const std::vector<std::uint32_t> &table, std::uint64_t x)
{
    const std::size_t mask = table.size() - 1;
    for (int i = 0; i < 20000; ++i) {
        x = table[(x ^ (x >> 7)) & mask] + (x << 1);
        if (x & 4)
            x += 0x9e3779b97f4a7c15ull;
        else
            x ^= x >> 11;
    }
    return x;
}

/**
 * Host speed: calibration units per second per thread, measured for
 * half a second on every core. The benchmark runs on shared machines
 * whose speed drifts by tens of percent over minutes; run.py scales
 * timings by this figure, taken before and after them, to cancel the
 * drift.
 */
double
hostSpeed()
{
    constexpr double kSampleSeconds = 0.5;
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(std::size_t(1) << 12);
        std::mt19937 rng(1);
        for (std::uint32_t &v : t)
            v = rng();
        return t;
    }();
    std::atomic<std::uint64_t> units{0}, sink{0};
    const double t0 = now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < cores(); ++t)
        pool.emplace_back([&, t] {
            std::uint64_t x = t + 1, n = 0;
            while (now() - t0 < kSampleSeconds) {
                x = calibrationUnit(table, x);
                ++n;
            }
            units += n;
            sink += x; // keeps the walk from being optimized away
        });
    for (std::thread &t : pool)
        t.join();
    return double(units.load()) / (now() - t0) / cores();
}

std::string
pointKey(const SweepPoint &p)
{
    return p.bench + "|" + p.cfg.specText() + "|" +
           std::to_string(p.cfg.width) + "|" +
           (p.cfg.optimizedLayout ? "opt" : "base") + "|" +
           std::to_string(p.cfg.insts) + "|" +
           std::to_string(p.cfg.warmupInsts);
}

// ---------------------------------------------------------------------
// offline
// ---------------------------------------------------------------------

// The offline grid: one bench per family plus gcc, every engine, both
// paper widths and both layouts, at paper-like run lengths.
const char *const kOfflineBenches[] = {"gzip",  "loops",  "server",
                                       "thrash", "phased", "gcc"};
const char *const kEngines = "ev8,ftb,stream,trace,seq";
const unsigned kWidths[] = {4, 8};
const bool kLayouts[] = {false, true};
constexpr InstCount kInsts = 500'000;
constexpr InstCount kWarmup = 100'000;
// One cold set-up takes about 0.1 s, too short to time alone against
// scheduler noise, so each set-up sample is this many back to back.
constexpr unsigned kSetupSamples = 5;
constexpr unsigned kSetupsPerSample = 4;
// Points re-run on live generation and compared with their arena rows.
constexpr unsigned kVerify = 4;

struct SetupSample
{
    double wall = 0, buildSeconds = 0, decodeSeconds = 0;
    std::size_t builds = 0, decodes = 0;
    std::uint64_t arenaBytes = 0, arenaInsts = 0;
};

/** One cold set-up, added to @p r: build every workload, then decode
 * every (workload, layout) arena the sweep will replay, each phase on
 * the sweep's thread count. */
void
coldSetup(const std::vector<std::string> &benches, unsigned jobs,
          bool traced, SetupSample &r)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const std::uint64_t root = gTracer.newId();
    const double t0 = now();
    std::mutex mu;

    parallelFor(benches.size(), jobs, [&](std::size_t i) {
        const double b0 = now();
        cache.get(benches[i]);
        const double b1 = now();
        std::lock_guard<std::mutex> lock(mu);
        r.buildSeconds += b1 - b0;
        ++r.builds;
        if (traced)
            gTracer.record(gTracer.newId(), root, 0, "workload.build",
                           b0, b1);
    });

    const InstCount total = kInsts + kWarmup + kFetchAheadMargin;
    const std::size_t nl = std::size(kLayouts);
    parallelFor(benches.size() * nl, jobs, [&](std::size_t i) {
        const double d0 = now();
        auto arena =
            cache.get(benches[i / nl]).arena(kLayouts[i % nl], total);
        const double d1 = now();
        std::lock_guard<std::mutex> lock(mu);
        r.decodeSeconds += d1 - d0;
        ++r.decodes;
        r.arenaBytes += arena->bytes();
        r.arenaInsts += arena->size();
        if (traced)
            gTracer.record(gTracer.newId(), root, 0, "layout.decode", d0,
                           d1);
    });
    const double t1 = now();
    r.wall += t1 - t0;
    if (traced)
        gTracer.record(root, 0, 0, "sim.setup", t0, t1);
}

int
runOffline(int argc, char **argv)
{
    double seconds = 10.0;
    std::uint64_t seed = 1;
    bool trace = false;
    CliParser cli("sfbench offline",
                  "time workload builds, arena decodes and repeated "
                  "SweepDriver sweeps of one grid");
    cli.addOption("--seconds", "S", "measured-phase length",
                  [&](const std::string &v) { seconds = std::stod(v); });
    cli.addOption("--seed", "N", "seed of the live re-run sample",
                  [&](const std::string &v) {
                      seed = CliParser::parseU64(v);
                  });
    cli.addOption("--trace", "0|1", "record spans",
                  [&](const std::string &v) { trace = v == "1"; });
    cli.parseOrExit(argc, argv);
    const unsigned jobs = cores();

    std::vector<std::string> benches;
    for (const char *b : kOfflineBenches)
        benches.push_back(canonicalBenchSpec(b));
    std::vector<SweepPoint> points;
    for (const std::string &bench : benches)
        for (bool opt : kLayouts)
            for (unsigned w : kWidths)
                for (const SimConfig &arch : parseArchSpecList(kEngines)) {
                    SimConfig cfg = arch;
                    cfg.width = w;
                    cfg.optimizedLayout = opt;
                    cfg.insts = kInsts;
                    cfg.warmupInsts = kWarmup;
                    points.push_back({bench, cfg});
                }
    std::mt19937_64 rng(seed);

    const double spanCost = trace ? spanCostSeconds() : 0.0;
    std::vector<double> speeds{hostSpeed()};

    std::vector<SetupSample> setups(kSetupSamples);
    for (SetupSample &s : setups)
        for (unsigned r = 0; r < kSetupsPerSample; ++r)
            coldSetup(benches, jobs, trace, s);

    // One untimed sweep first: it faults the cached arenas in and
    // records the rows every later sweep must reproduce. Then the
    // measured phase: whole sweeps until the budget is spent, timing
    // the replay hot loop, not the decode.
    WorkloadCache &cache = WorkloadCache::instance();
    std::vector<std::string> firstRows(points.size());
    std::vector<std::string> masked(points.size());
    std::uint64_t mismatched = 0, missing = 0, attempted = 0;
    auto sweep = [&](std::uint64_t s, bool traced) {
        const std::uint64_t root = gTracer.newId();
        std::string lat;
        SweepDriver driver(jobs);
        driver.setQuiet(true);
        const double t0 = now();
        ResultSet rs = driver.run(
            points, [&](const ResultRow &row, std::size_t i, std::size_t) {
                const double t = now();
                const std::string text = rowJson(row);
                if (s == 0) {
                    firstRows[i] = text;
                    masked[i] = maskWall(text);
                } else if (maskWall(text) != masked[i]) {
                    ++mismatched;
                }
                lat += (lat.empty() ? "[" : ", [") +
                       num(std::uint64_t(i)) + ", " + num(t - t0) + ", " +
                       num(row.wallSeconds) + "]";
                if (traced)
                    gTracer.record(gTracer.newId(), root, s,
                                   "pipeline.run", t - row.wallSeconds,
                                   t);
            });
        const double t1 = now();
        if (traced)
            gTracer.record(root, 0, s, "sim.sweep", t0, t1);
        missing += points.size() - rs.size();
        return std::string("{\"sweep\": ") + num(s) + ", \"traced\": " +
               (traced ? "true" : "false") + ", \"start\": " + num(t0) +
               ", \"wall\": " + num(t1 - t0) + ", \"rows\": [" + lat +
               "]}";
    };
    sweep(0, false);

    const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses(),
                        evictions0 = cache.evictions();
    std::string sweeps = "[";
    const double phase0 = now();
    for (std::uint64_t s = 1; s == 1 || now() - phase0 < seconds; ++s) {
        sweeps += (s > 1 ? ",\n  " : "\n  ") + sweep(s, trace && s % 2);
        attempted += points.size();
    }
    sweeps += "]";
    const std::uint64_t hits = cache.hits() - hits0,
                        misses = cache.misses() - misses0,
                        evictions = cache.evictions() - evictions0;

    // A seeded sample of points re-run on live generation: the arena
    // rows above must be exactly what the generator produces.
    std::string live = "[";
    for (unsigned k = 0; k < kVerify; ++k) {
        const std::size_t i = rng() % points.size();
        const SweepPoint &p = points[i];
        ResultRow row;
        row.bench = p.bench;
        row.cfg = p.cfg;
        const double t0 = now();
        row.stats = runOn(cache.get(p.bench), p.cfg);
        row.wallSeconds = now() - t0;
        if (trace)
            gTracer.record(gTracer.newId(), 0, 0, "pipeline.run", t0,
                           t0 + row.wallSeconds);
        ++attempted;
        const bool same =
            !masked[i].empty() && maskWall(rowJson(row)) == masked[i];
        mismatched += same ? 0 : 1;
        live += std::string(k ? ", " : "") + "{\"point\": " + num(i) +
                ", \"match\": " + (same ? "true" : "false") +
                ", \"wall\": " + num(row.wallSeconds) + "}";
    }
    live += "]";
    speeds.push_back(hostSpeed());

    std::string setupJson = "[";
    for (std::size_t r = 0; r < setups.size(); ++r) {
        const SetupSample &s = setups[r];
        setupJson += std::string(r ? ", " : "") + "{\"wall\": " +
                     num(s.wall) + ", \"build_s\": " +
                     num(s.buildSeconds) + ", \"decode_s\": " +
                     num(s.decodeSeconds) + ", \"builds\": " +
                     num(std::uint64_t(s.builds)) + ", \"decodes\": " +
                     num(std::uint64_t(s.decodes)) +
                     ", \"arena_bytes\": " + num(s.arenaBytes) +
                     ", \"arena_insts\": " + num(s.arenaInsts) + "}";
    }
    setupJson += "]";

    std::string rows = "[";
    for (std::size_t i = 0; i < firstRows.size(); ++i)
        rows += (i ? ",\n  " : "\n  ") +
                (firstRows[i].empty() ? std::string("null")
                                      : firstRows[i]);
    rows += "]";

    std::printf(
        "{\"mode\": \"offline\", \"jobs\": %u, \"points\": %zu,\n"
        "\"setups\": %s, \"setups_per_sample\": %u,\n"
        "\"speeds\": [%s, %s],\n"
        "\"attempted\": %llu, \"mismatched\": %llu, \"missing\": %llu,\n"
        "\"cache\": {\"hits\": %llu, \"misses\": %llu, "
        "\"evictions\": %llu, \"resident_bytes\": %llu},\n"
        "\"peak_rss_mb\": %s, \"span_cost_s\": %s,\n"
        "\"live\": %s,\n\"sweeps\": %s,\n\"rows\": %s,\n\"spans\": %s}\n",
        jobs, points.size(), setupJson.c_str(), kSetupsPerSample,
        num(speeds[0]).c_str(), num(speeds[1]).c_str(),
        (unsigned long long)attempted,
        (unsigned long long)mismatched, (unsigned long long)missing,
        (unsigned long long)hits, (unsigned long long)misses,
        (unsigned long long)evictions,
        (unsigned long long)cache.bytesResident(),
        num(peakRssMb()).c_str(), num(spanCost).c_str(), live.c_str(),
        sweeps.c_str(), rows.c_str(), gTracer.json().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// client
// ---------------------------------------------------------------------

struct Request
{
    std::string text;               //!< the submit line, verbatim
    std::vector<SweepPoint> points; //!< its explicit "points" list
};

std::vector<Request>
readRequests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<Request> out;
    for (std::string line; std::getline(in, line);) {
        if (line.empty())
            continue;
        Request r;
        r.text = line;
        const JsonValue req = JsonReader(line).parse();
        for (const JsonValue &e : req.at("points").array) {
            SweepPoint p;
            p.bench = canonicalBenchSpec(e.at("bench").asString());
            p.cfg = SimConfig::fromSpec(e.at("spec").asString());
            p.cfg.width = unsigned(e.at("width").asU64());
            p.cfg.optimizedLayout = e.at("layout").asString() == "opt";
            p.cfg.insts = e.at("insts").asU64();
            p.cfg.warmupInsts = e.at("warmup").asU64();
            r.points.push_back(std::move(p));
        }
        out.push_back(std::move(r));
    }
    if (out.empty())
        throw std::runtime_error(path + " holds no requests");
    return out;
}

struct JobRecord
{
    std::uint64_t seq = 0;
    std::size_t req = 0;
    bool traced = false;
    double tSend = 0, tAck = -1, tFirst = -1, tDone = -1;
    std::string outcome = "lost"; //!< done|rejected|failed|stuck|lost
    std::string reason;
    std::size_t rows = 0, expected = 0, arenaRows = 0;
    double rowsWall = 0, sweepWall = 0;
    std::string rowStats; //!< [arch, wall, insts, cycles, arena] list
};

/** Served masked rows by point key: the first copy seen, plus how
 * many later copies disagreed with it. */
struct ServedRows
{
    std::mutex mu;
    std::map<std::string, std::string> first;
    std::uint64_t mismatched = 0;

    void
    add(const std::string &key, const std::string &masked)
    {
        std::lock_guard<std::mutex> lock(mu);
        auto [it, fresh] = first.emplace(key, masked);
        if (!fresh && it->second != masked)
            ++mismatched;
    }
};

/** Submit one request and consume its stream into @p rec. A traced
 * job's serve.submit span covers submit sent to done received, the
 * interval its latency is measured over, and its children tile it. */
void
runJob(ServeClient &client, const Request &req, JobRecord &rec,
       ServedRows &served)
{
    const std::uint64_t root = gTracer.newId();
    double tPrev = rec.tSend = now();
    rec.expected = req.points.size();
    auto child = [&](const char *name, double t) {
        if (rec.traced)
            gTracer.record(gTracer.newId(), root, rec.seq, name, tPrev,
                           t);
        tPrev = t;
    };
    client.submitStream(req.text, [&](const JsonValue &v,
                                      const std::string &raw) {
        const double t = now();
        if (const JsonValue *row = v.find("row")) {
            const std::size_t point = v.at("point").asU64();
            if (point >= req.points.size())
                throw std::runtime_error("row for unknown point");
            served.add(pointKey(req.points[point]),
                       maskWall(rowText(raw)));
            const JsonValue &st = row->at("stats");
            const bool arena = v.at("arena").asBool();
            const double wall = row->at("wall_seconds").asNumber();
            rec.rowStats +=
                std::string(rec.rows ? ", [" : "[") +
                jsonQuote(row->at("config").at("arch").asString()) +
                ", " + num(wall) + ", " +
                num(st.at("committed_insts").asU64() +
                    row->at("config").at("warmup").asU64()) +
                ", " + num(st.at("cycles").asU64()) + ", " +
                (arena ? "true" : "false") + "]";
            rec.rowsWall += wall;
            rec.arenaRows += arena ? 1 : 0;
            if (rec.rows++ == 0)
                rec.tFirst = t;
            child("serve.row", t);
        } else if (v.find("done")) {
            rec.tDone = t;
            rec.outcome = v.at("state").asString();
            if (const JsonValue *w = v.find("wall_seconds"))
                rec.sweepWall = w->asNumber();
            child("serve.done", t);
        } else if (!v.at("ok").asBool()) {
            rec.tDone = t;
            rec.outcome = "rejected";
            if (const JsonValue *r = v.find("reason"))
                rec.reason = r->asString();
        } else {
            rec.tAck = t;
            child("serve.ack", t);
        }
        return true;
    });
    if (rec.traced && rec.tDone >= 0)
        gTracer.record(root, 0, rec.seq, "serve.submit", rec.tSend,
                       rec.tDone);
}

int
runClient(int argc, char **argv)
{
    std::string address, requestsPath;
    unsigned clients = 1;
    double seconds = 0.0;
    bool trace = false, reference = false;
    CliParser cli("sfbench client",
                  "closed-loop sfetchd load with per-job timings and "
                  "row verification");
    cli.addOption("--connect", "ADDR", "daemon address",
                  [&](const std::string &v) { address = v; });
    cli.addOption("--requests", "FILE", "one submit line per request",
                  [&](const std::string &v) { requestsPath = v; });
    cli.addOption("--clients", "N", "concurrent connections",
                  [&](const std::string &v) {
                      clients = unsigned(CliParser::parseU64(v));
                  });
    cli.addOption("--seconds", "S",
                  "closed-loop length; 0 sends every request once",
                  [&](const std::string &v) { seconds = std::stod(v); });
    cli.addOption("--trace", "0|1", "record spans",
                  [&](const std::string &v) { trace = v == "1"; });
    cli.addFlag("--reference",
                "run every distinct point offline and compare rows",
                [&] { reference = true; });
    cli.parseOrExit(argc, argv);
    if (address.empty() || requestsPath.empty())
        throw std::invalid_argument("--connect and --requests are required");
    const std::vector<Request> requests = readRequests(requestsPath);
    const double spanCost = trace ? spanCostSeconds() : 0.0;

    ServedRows served;
    std::atomic<std::uint64_t> next{0};
    const std::size_t nClients = std::max(1u, clients);
    std::vector<std::vector<JobRecord>> perClient(nClients);
    std::vector<std::string> errors(nClients);
    const bool timed = seconds > 0;
    std::vector<double> speeds;
    if (timed)
        speeds.push_back(hostSpeed());
    const double t0 = now();
    const double deadline = t0 + seconds;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < nClients; ++c)
        threads.emplace_back([&, c] {
            std::unique_ptr<ServeClient> client;
            while (!timed || now() < deadline) {
                const std::uint64_t seq = next.fetch_add(1);
                if (!timed && seq >= requests.size())
                    return;
                JobRecord rec;
                rec.seq = seq;
                rec.req = seq % requests.size();
                rec.traced = trace && seq % 2 == 0;
                try {
                    if (!client)
                        client = std::make_unique<ServeClient>(
                            address,
                            ServeClient::ConnectRetry{5, 20, 200, seq + 1});
                    runJob(*client, requests[rec.req], rec, served);
                } catch (const std::exception &e) {
                    // A lost connection fails this job; the next one
                    // reconnects.
                    client.reset();
                    rec.reason = e.what();
                    if (errors[c].empty())
                        errors[c] = e.what();
                }
                perClient[c].push_back(std::move(rec));
            }
        });
    for (std::thread &t : threads)
        t.join();
    const double wall = now() - t0;
    if (timed)
        speeds.push_back(hostSpeed());
    std::string speedJson = "[";
    for (std::size_t i = 0; i < speeds.size(); ++i)
        speedJson += (i ? ", " : "") + num(speeds[i]);
    speedJson += "]";

    // Offline reference over every distinct point of the request list
    // (not only the ones served), so the simulated counts derived
    // from it depend on the seed alone.
    std::string refRows = "[";
    std::uint64_t refMismatched = 0, refChecked = 0;
    if (reference) {
        std::vector<SweepPoint> points;
        std::map<std::string, bool> seen;
        for (const Request &r : requests)
            for (const SweepPoint &p : r.points)
                if (seen.emplace(pointKey(p), true).second)
                    points.push_back(p);
        SweepDriver driver(cores());
        driver.setQuiet(true);
        ResultSet rs = driver.run(points);
        for (std::size_t i = 0; i < rs.size(); ++i) {
            const std::string text = rowJson(rs.at(i));
            refRows += (i ? ",\n  " : "\n  ") + text;
            auto it = served.first.find(pointKey(points[i]));
            if (it != served.first.end()) {
                ++refChecked;
                refMismatched += it->second == maskWall(text) ? 0 : 1;
            }
        }
        refMismatched += points.size() - rs.size();
    }
    refRows += "]";

    // Times are on the harness clock, the one the spans use.
    std::string jobs = "[";
    std::size_t n = 0;
    for (const auto &list : perClient)
        for (const JobRecord &r : list)
            jobs += std::string(n++ ? ",\n  " : "\n  ") +
                    "{\"seq\": " + num(r.seq) + ", \"req\": " +
                    num(std::uint64_t(r.req)) + ", \"traced\": " +
                    (r.traced ? "true" : "false") + ", \"send\": " +
                    num(r.tSend) + ", \"ack\": " + num(r.tAck) +
                    ", \"first\": " + num(r.tFirst) +
                    ", \"done\": " + num(r.tDone) +
                    ", \"outcome\": " + jsonQuote(r.outcome) +
                    ", \"reason\": " + jsonQuote(r.reason) +
                    ", \"rows\": " + num(std::uint64_t(r.rows)) +
                    ", \"expected\": " + num(std::uint64_t(r.expected)) +
                    ", \"arena_rows\": " +
                    num(std::uint64_t(r.arenaRows)) + ", \"rows_wall\": " +
                    num(r.rowsWall) + ", \"sweep_wall\": " +
                    num(r.sweepWall) + ", \"row_stats\": [" + r.rowStats +
                    "]}";
    jobs += "]";
    std::string errs = "[";
    for (const std::string &e : errors)
        if (!e.empty())
            errs += (errs.size() > 1 ? ", " : "") + jsonQuote(e);
    errs += "]";

    std::printf("{\"mode\": \"client\", \"clients\": %zu, \"start\": %s, "
                "\"wall\": %s, \"speeds\": %s,\n"
                "\"span_cost_s\": %s, \"distinct_served\": %zu,\n"
                "\"repeat_mismatched\": %llu, \"ref_checked\": %llu, "
                "\"ref_mismatched\": %llu,\n\"errors\": %s,\n"
                "\"jobs\": %s,\n\"ref_rows\": %s,\n\"spans\": %s}\n",
                nClients, num(t0).c_str(), num(wall).c_str(),
                speedJson.c_str(), num(spanCost).c_str(),
                served.first.size(), (unsigned long long)served.mismatched,
                (unsigned long long)refChecked,
                (unsigned long long)refMismatched, errs.c_str(),
                jobs.c_str(), refRows.c_str(), gTracer.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    try {
        if (mode == "offline")
            return runOffline(argc - 1, argv + 1);
        if (mode == "client")
            return runClient(argc - 1, argv + 1);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sfbench %s: %s\n", mode.c_str(), e.what());
        return 1;
    }
    std::fprintf(stderr, "usage: sfbench offline|client [options] "
                         "(--help lists the options of each)\n");
    return 2;
}
