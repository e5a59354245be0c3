/**
 * @file
 * Multi-node fan-out tests: a front daemon sharding sweeps across
 * worker daemons over loopback TCP. The contract under test: the
 * merged row stream a client sees from the front is bit-identical to
 * both a single-daemon run and the offline SweepDriver — including
 * when a worker is killed mid-sweep and its points are re-dispatched
 * to a survivor — and a fully dead fleet fails the job structurally
 * instead of hanging or crashing.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/socket_io.hh"
#include "sim/driver.hh"

using namespace sfetch;

namespace
{

ServeConfig
tcpConfig()
{
    ServeConfig cfg;
    cfg.socketPath = "tcp:127.0.0.1:0"; // ephemeral loopback port
    cfg.workers = 2;
    cfg.memBudgetBytes = std::size_t(64) << 20;
    cfg.quiet = true;
    return cfg;
}

/** The canonical 12-point submit these tests fan out. */
constexpr const char *kSubmit12 =
    "{\"verb\": \"submit\", \"bench\": \"gzip\", "
    "\"arch\": \"stream,ev8,ftb,seq\", \"widths\": [2, 4, 8], "
    "\"insts\": 20000, \"warmup\": 4000}";

/** The offline grid matching kSubmit12 (same expansion order: width
 * outer, arch inner — mirroring the server's submit handler). */
std::vector<SweepPoint>
grid12()
{
    std::vector<SimConfig> cfgs;
    for (unsigned width : {2u, 4u, 8u})
        for (const char *arch : {"stream", "ev8", "ftb", "seq"}) {
            SimConfig cfg(arch);
            cfg.width = width;
            cfg.optimizedLayout = true;
            cfg.insts = 20'000;
            cfg.warmupInsts = 4'000;
            cfgs.push_back(cfg);
        }
    return SweepDriver::grid({"gzip"}, cfgs);
}

struct Stream
{
    std::vector<std::string> raw; //!< every line, arrival order
    std::vector<JsonValue> frames;
    JsonValue summary;
    bool done = false;
};

Stream
collect(const std::string &address, const std::string &submit_json)
{
    Stream s;
    ServeClient client(address);
    s.done = client.submitStream(
        submit_json,
        [&](const JsonValue &parsed, const std::string &raw) {
            s.raw.push_back(raw);
            if (parsed.find("point"))
                s.frames.push_back(parsed);
            else if (const JsonValue *d = parsed.find("done");
                     d && d->kind == JsonValue::Kind::Bool &&
                     d->boolean)
                s.summary = parsed;
            return true;
        });
    return s;
}

/** The `"row": {...}` payload of a frame line, as raw JSON text. */
std::string
rowPayload(const std::string &frame_line)
{
    const std::string key = "\"row\": ";
    std::size_t at = frame_line.find(key);
    EXPECT_NE(at, std::string::npos) << frame_line;
    return frame_line.substr(at + key.size(),
                             frame_line.size() - at - key.size() - 1);
}

/** @p payload minus its trailing "wall_seconds" member: per-point
 * wall clock is a measurement, not simulation output, so it is the
 * one field byte-compares must mask. */
std::string
maskWallClock(const std::string &payload)
{
    const std::size_t at = payload.rfind(", \"wall_seconds\": ");
    EXPECT_NE(at, std::string::npos) << payload;
    return payload.substr(0, at) + "}";
}

/** The row payloads of @p s indexed by point; a point framed twice
 * or out of range fails the test. */
std::vector<std::string>
payloadsByPoint(const Stream &s)
{
    std::vector<std::string> out(s.frames.size());
    for (std::size_t i = 0; i < s.frames.size(); ++i) {
        const std::uint64_t point = s.frames[i].at("point").asU64();
        if (point >= out.size() || !out[point].empty()) {
            ADD_FAILURE() << "point " << point << " framed twice or "
                          << "out of range";
            continue;
        }
        out[point] = rowPayload(s.raw[1 + i]);
    }
    return out;
}

/** Assert @p s carries all 12 rows, each once and bit-identical to
 * @p expect. A front merges in global point order (@p point_ordered);
 * a local daemon streams in completion order. */
void
expectStreamMatches(const Stream &s, const ResultSet &expect,
                    bool point_ordered)
{
    ASSERT_TRUE(s.done);
    ASSERT_EQ(s.frames.size(), 12u);
    for (std::size_t i = 0; i < s.frames.size(); ++i) {
        if (point_ordered) {
            EXPECT_EQ(s.frames[i].at("point").asU64(), i)
                << "merged stream must emit in global point order";
        }
        EXPECT_EQ(s.frames[i].at("of").asU64(), 12u);
    }
    std::string rows_doc = "{\"wall_seconds\": 0, \"rows\": [";
    for (const std::string &payload : payloadsByPoint(s))
        rows_doc += (rows_doc.back() == '[' ? "" : ",") + payload;
    rows_doc += "]}";
    ResultSet streamed = ResultSet::fromJson(rows_doc);
    ASSERT_EQ(streamed.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(streamed.at(i).bench, expect.at(i).bench);
        EXPECT_EQ(streamed.at(i).cfg, expect.at(i).cfg) << "row " << i;
        EXPECT_EQ(streamed.at(i).stats, expect.at(i).stats)
            << "merged row " << i << " diverged from offline";
    }
    EXPECT_EQ(s.summary.at("state").asString(), "done");
    EXPECT_EQ(s.summary.at("points_done").asU64(), 12u);
}

} // namespace

TEST(MultiNode, TwoWorkerFanOutIsBitIdenticalToOfflineAndSingleNode)
{
    SweepDriver offline(1);
    offline.setQuiet(true);
    ResultSet expect = offline.run(grid12());
    ASSERT_EQ(expect.size(), 12u);

    Server workerA(tcpConfig());
    Server workerB(tcpConfig());
    workerA.start();
    workerB.start();

    // A single daemon serving the same submit is the row-for-row
    // reference the merged stream must be indistinguishable from.
    Server single(tcpConfig());
    single.start();
    Stream ref = collect(single.listenAddress(), kSubmit12);
    expectStreamMatches(ref, expect, false);

    ServeConfig front_cfg = tcpConfig();
    front_cfg.workerAddrs = {workerA.listenAddress(),
                             workerB.listenAddress()};
    Server front(front_cfg);
    front.start();

    Stream merged = collect(front.listenAddress(), kSubmit12);
    expectStreamMatches(merged, expect, true);

    // Byte-for-byte against the single daemon: the fan-out is
    // invisible in the row payloads.
    const std::vector<std::string> merged_rows = payloadsByPoint(merged);
    const std::vector<std::string> ref_rows = payloadsByPoint(ref);
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(maskWallClock(merged_rows[i]),
                  maskWallClock(ref_rows[i]))
            << "row " << i << " bytes differ from a single-node run";

    // 12 points at the default 4-point chunk = 3 clean dispatches,
    // every row streamed by some worker (which pump won which chunk
    // is the work-stealing scheduler's business, not the test's).
    const MetricsRegistry &st = front.metrics();
    EXPECT_EQ(st.value("shards_dispatched"), 3u);
    EXPECT_EQ(st.value("shard_retries"), 0u);
    EXPECT_EQ(st.value("points_redispatched"), 0u);
    EXPECT_EQ(st.value("jobs_served"), 1u);
    EXPECT_EQ(st.value("rows_streamed"), 12u);
    EXPECT_EQ(st.value("workers_registered"), 2u);
    EXPECT_EQ(workerA.metrics().value("rows_streamed") +
                  workerB.metrics().value("rows_streamed"),
              12u);

    front.stop(true);
    single.stop(true);
    workerA.stop(true);
    workerB.stop(true);
}

TEST(MultiNode, WorkerKilledMidSweepIsReDispatchedBitIdentically)
{
    SweepDriver offline(1);
    offline.setQuiet(true);
    ResultSet expect = offline.run(grid12());

    Server workerA(tcpConfig());
    ServeConfig b_cfg = tcpConfig();
    b_cfg.workers = 1; // one slot: a captive job blocks the shard
    Server workerB(b_cfg);
    workerA.start();
    workerB.start();

    // Occupy worker B's only slot with a slow multi-point job (read
    // just the ack), so B queues its shard instead of running it —
    // the kill below deterministically lands before B delivers a row.
    // "jobs": 1 keeps the captive job slow: B's default share would
    // sweep its points on every core.
    LineChannel slow(
        connectSocket(parseSocketAddr(workerB.listenAddress())));
    ASSERT_TRUE(slow.writeLine(
        "{\"verb\": \"submit\", \"bench\": \"gzip\", "
        "\"arch\": \"stream,ev8\", \"widths\": [4, 8], "
        "\"insts\": 500000, \"warmup\": 1000, \"jobs\": 1}"));
    std::string ack;
    ASSERT_TRUE(slow.readLine(ack));

    ServeConfig front_cfg = tcpConfig();
    front_cfg.workerAddrs = {workerA.listenAddress(),
                             workerB.listenAddress()};
    Server front(front_cfg);
    front.start();

    Stream merged;
    std::thread submitter([&] {
        merged = collect(front.listenAddress(), kSubmit12);
    });

    // The moment both shards are dispatched and B has admitted its
    // own (captive job + shard), kill worker B: the shard (queued
    // behind the captive job) dies undelivered and the front must
    // re-dispatch those points to worker A. Killing B before it acks
    // would only turn the shard away, which costs no re-dispatch.
    auto bTookItsShard = [&] {
        return front.metrics().value("shards_dispatched") >= 2 &&
               workerB.metrics().value("jobs_submitted") >= 2;
    };
    for (int i = 0; i < 15000 && !bTookItsShard(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(bTookItsShard());
    workerB.stop(false);

    submitter.join();
    expectStreamMatches(merged, expect, true);

    const MetricsRegistry &st = front.metrics();
    EXPECT_GE(st.value("shard_retries"), 1u)
        << "losing a worker mid-sweep must cost a re-dispatch round";
    EXPECT_GE(st.value("shards_dispatched"), 3u);
    EXPECT_EQ(st.value("jobs_served"), 1u);

    front.stop(true);
    workerA.stop(true);
}

TEST(MultiNode, SlowWorkerLosesChunksToHealthyPeer)
{
    SweepDriver offline(1);
    offline.setQuiet(true);
    ResultSet expect = offline.run(grid12());

    Server workerA(tcpConfig());
    ServeConfig b_cfg = tcpConfig();
    b_cfg.workers = 1; // one slot: a captive job makes B slow
    Server workerB(b_cfg);
    workerA.start();
    workerB.start();

    // Occupy worker B's only slot with a multi-second job (read just
    // the ack): B accepts chunks but queues them — slow, not dead.
    // The front's per-chunk read timeout must reclaim B's chunk and
    // the healthy worker A must absorb it, bit-identically. "jobs": 1
    // keeps the captive job on one core, as slow as it is meant to be.
    // Its 28 points must outlast the 2 s timeout well even on a fast
    // host (one 8M-instruction point takes about 0.25 s on one core
    // of a current x86 server); a cancel waits for at most the
    // running point.
    LineChannel slow(
        connectSocket(parseSocketAddr(workerB.listenAddress())));
    ASSERT_TRUE(slow.writeLine(
        "{\"verb\": \"submit\", \"bench\": \"gzip\", "
        "\"arch\": \"stream,ev8,ftb,seq\", "
        "\"widths\": [2, 3, 4, 5, 6, 7, 8], "
        "\"insts\": 8000000, \"warmup\": 1000, \"jobs\": 1}"));
    std::string ack;
    ASSERT_TRUE(slow.readLine(ack));

    ServeConfig front_cfg = tcpConfig();
    front_cfg.workerAddrs = {workerA.listenAddress(),
                             workerB.listenAddress()};
    front_cfg.pointTimeoutMs = 2000; // bounds the wait on slow B
    Server front(front_cfg);
    front.start();

    Stream merged = collect(front.listenAddress(), kSubmit12);
    expectStreamMatches(merged, expect, true);

    const MetricsRegistry &st = front.metrics();
    EXPECT_GE(st.value("shard_retries"), 1u)
        << "B's timed-out chunk must be re-dispatched";
    EXPECT_GE(st.value("points_redispatched"), 1u);
    EXPECT_EQ(st.value("jobs_served"), 1u);
    // A alone delivered the whole grid (B's rowsStreamed is not
    // asserted: it counts the captive job's own rows).
    EXPECT_EQ(workerA.metrics().value("rows_streamed"), 12u);

    front.stop(true);
    workerA.stop(true);
    workerB.stop(false); // cancel the captive job
}

TEST(MultiNode, RegisterAndDeregisterFlipFrontModeAtRuntime)
{
    SweepDriver offline(1);
    offline.setQuiet(true);
    ResultSet expect = offline.run(grid12());

    Server worker(tcpConfig());
    worker.start();

    // No --worker list: the daemon starts as a plain local server.
    Server front(tcpConfig());
    front.start();
    Stream local = collect(front.listenAddress(), kSubmit12);
    expectStreamMatches(local, expect, false);
    EXPECT_EQ(front.metrics().value("shards_dispatched"), 0u);
    EXPECT_EQ(front.metrics().value("workers_registered"), 0u);

    // Register the worker over the protocol: the next submit must
    // fan out (and stay bit-identical to the local run).
    ServeClient ctl(front.listenAddress());
    JsonValue rep = ctl.request(
        "{\"verb\": \"register\", \"worker\": \"" +
        worker.listenAddress() + "\"}");
    ASSERT_TRUE(rep.at("ok").boolean);
    EXPECT_EQ(rep.at("workers").asU64(), 1u);

    JsonValue listed = ctl.request("{\"verb\": \"workers\"}");
    ASSERT_TRUE(listed.at("ok").boolean);
    EXPECT_EQ(listed.at("workers_registered").asU64(), 1u);
    EXPECT_EQ(listed.at("workers").array.at(0).at("addr").asString(),
              worker.listenAddress());

    Stream fanned = collect(front.listenAddress(), kSubmit12);
    expectStreamMatches(fanned, expect, true);
    EXPECT_EQ(front.metrics().value("shards_dispatched"), 3u);
    EXPECT_EQ(worker.metrics().value("rows_streamed"), 12u);
    const std::vector<std::string> fanned_rows = payloadsByPoint(fanned);
    const std::vector<std::string> local_rows = payloadsByPoint(local);
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(maskWallClock(fanned_rows[i]),
                  maskWallClock(local_rows[i]))
            << "row " << i
            << " bytes differ between local and fanned-out runs";

    // Deregister: the daemon reverts to local simulation.
    rep = ctl.request("{\"verb\": \"deregister\", \"worker\": \"" +
                      worker.listenAddress() + "\"}");
    ASSERT_TRUE(rep.at("ok").boolean);
    EXPECT_EQ(rep.at("workers").asU64(), 0u);
    Stream again = collect(front.listenAddress(), kSubmit12);
    expectStreamMatches(again, expect, false);
    EXPECT_EQ(front.metrics().value("shards_dispatched"), 3u)
        << "a deregistered fleet must not receive dispatches";

    front.stop(true);
    worker.stop(true);
}

TEST(MultiNode, DeadFleetFailsTheJobStructurally)
{
    // Nothing listens on the worker address: every generation fails
    // to deliver, and the job must end "failed" with a diagnostic —
    // not hang, not crash, not pretend success.
    ServeConfig front_cfg = tcpConfig();
    front_cfg.workerAddrs = {"tcp:127.0.0.1:1"};
    front_cfg.shardRetries = 0; // one generation keeps the test fast
    Server front(front_cfg);
    front.start();

    Stream s = collect(front.listenAddress(), kSubmit12);
    ASSERT_TRUE(s.done);
    EXPECT_EQ(s.frames.size(), 0u);
    EXPECT_EQ(s.summary.at("state").asString(), "failed");
    EXPECT_NE(s.summary.at("error").asString().find("undeliverable"),
              std::string::npos);
    EXPECT_EQ(front.metrics().value("jobs_failed"), 1u);
    front.stop(true);
}

namespace
{

using Kind = JsonValue::Kind;
using Shape = std::map<std::string, Kind>;

/** The `stats` reply's keys and JSON types, as scripts read them. */
const Shape kStatsShape = {
    {"ok", Kind::Bool},
    {"jobs_submitted", Kind::Number},
    {"jobs_served", Kind::Number},
    {"jobs_rejected", Kind::Number},
    {"jobs_cancelled", Kind::Number},
    {"jobs_failed", Kind::Number},
    {"jobs_stuck", Kind::Number},
    {"jobs_recovered", Kind::Number},
    {"jobs_queued", Kind::Number},
    {"jobs_running", Kind::Number},
    {"jobs_live", Kind::Number},
    {"rows_streamed", Kind::Number},
    {"arena_fallbacks", Kind::Number},
    {"workers_configured", Kind::Number},
    {"workers_registered", Kind::Number},
    {"workers_alive", Kind::Number},
    {"workers_suspect", Kind::Number},
    {"workers_dead", Kind::Number},
    {"workers_recovering", Kind::Number},
    {"worker_deaths", Kind::Number},
    {"probes_sent", Kind::Number},
    {"probe_failures", Kind::Number},
    {"shards_dispatched", Kind::Number},
    {"shard_retries", Kind::Number},
    {"points_redispatched", Kind::Number},
    {"conns_active", Kind::Number},
    {"conns_rejected", Kind::Number},
    {"conn_timeouts", Kind::Number},
    {"cache_hits", Kind::Number},
    {"cache_misses", Kind::Number},
    {"cache_evictions", Kind::Number},
    {"resident_arena_bytes", Kind::Number},
    {"live_arena_bytes", Kind::Number},
    {"arena_decodes", Kind::Number},
    {"arena_decode_ms", Kind::Number},
    {"mem_budget_bytes", Kind::Number},
    {"journal_degraded", Kind::Bool},
    {"workers", Kind::Array},
};

/** Keys a newer daemon may add to `stats`; nothing may go away. */
const Shape kStatsAdditions = {
    {"journal_torn_lines", Kind::Number},
    {"resident_workload_bytes", Kind::Number},
};

/** One `workers` entry; the health keys appear once a probe landed. */
const Shape kWorkerShape = {
    {"addr", Kind::String},
    {"state", Kind::String},
    {"static", Kind::Bool},
    {"probes", Kind::Number},
    {"probe_failures", Kind::Number},
    {"transitions", Kind::Number},
    {"dispatch_failures", Kind::Number},
    {"dispatch_successes", Kind::Number},
    {"deaths", Kind::Number},
    {"consecutive_failures", Kind::Number},
    {"ewma_latency_ms", Kind::Number},
};
const Shape kWorkerHealthShape = {
    {"queue_depth", Kind::Number},
    {"jobs_running", Kind::Number},
    {"uptime_seconds", Kind::Number},
    {"journal_degraded", Kind::Bool},
};

const Shape kHealthShape = {
    {"ok", Kind::Bool},
    {"health", Kind::String},
    {"draining", Kind::Bool},
    {"jobs_queued", Kind::Number},
    {"jobs_running", Kind::Number},
    {"jobs_live", Kind::Number},
    {"queue_depth", Kind::Number},
    {"journal_degraded", Kind::Bool},
    {"uptime_seconds", Kind::Number},
};

const Shape kWorkersReplyShape = {
    {"ok", Kind::Bool},
    {"workers_registered", Kind::Number},
    {"workers", Kind::Array},
};

/** Assert @p reply has exactly the keys of @p want (plus any of
 * @p allowed), each with its JSON type. */
void
expectShape(const JsonValue &reply, const Shape &want,
            const Shape &allowed, const std::string &what)
{
    ASSERT_EQ(reply.kind, Kind::Object) << what;
    Shape got;
    for (const auto &[key, value] : reply.object)
        got[key] = value.kind;
    for (const auto &[key, kind] : want) {
        auto it = got.find(key);
        if (it == got.end()) {
            ADD_FAILURE() << what << ": missing key '" << key << "'";
            continue;
        }
        EXPECT_EQ(static_cast<int>(it->second), static_cast<int>(kind))
            << what << ": key '" << key << "' changed JSON type";
    }
    for (const auto &[key, kind] : got) {
        if (want.count(key))
            continue;
        auto it = allowed.find(key);
        if (it == allowed.end()) {
            ADD_FAILURE() << what << ": unexpected key '" << key << "'";
            continue;
        }
        EXPECT_EQ(static_cast<int>(kind), static_cast<int>(it->second))
            << what << ": key '" << key << "' has the wrong JSON type";
    }
}

Shape
merged(Shape a, const Shape &b)
{
    a.insert(b.begin(), b.end());
    return a;
}

} // namespace

TEST(MultiNode, StatsWorkersAndHealthRepliesKeepTheirShape)
{
    Server worker(tcpConfig());
    worker.start();
    ServeConfig front_cfg = tcpConfig();
    front_cfg.workerAddrs = {worker.listenAddress()};
    Server front(front_cfg);
    front.start();

    // One job through the front, so every counter has moved.
    Stream s = collect(front.listenAddress(), kSubmit12);
    ASSERT_TRUE(s.done);

    for (Server *daemon : {&worker, &front}) {
        const std::string what =
            daemon == &front ? "front" : "local daemon";
        ServeClient ctl(daemon->listenAddress());
        expectShape(ctl.request("{\"verb\": \"stats\"}"), kStatsShape,
                    kStatsAdditions, what + " stats");
        expectShape(ctl.request("{\"verb\": \"health\"}"), kHealthShape,
                    {}, what + " health");
        expectShape(ctl.request("{\"verb\": \"workers\"}"),
                    kWorkersReplyShape, {}, what + " workers");
    }

    // The front's entries gain the worker's health figures once its
    // prober (first probe at start) has heard back.
    ServeClient ctl(front.listenAddress());
    JsonValue entry;
    for (int i = 0; i < 500; ++i) {
        entry = ctl.request("{\"verb\": \"workers\"}")
                    .at("workers")
                    .array.at(0);
        if (entry.find("queue_depth"))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    expectShape(entry, merged(kWorkerShape, kWorkerHealthShape), {},
                "workers entry");
    const JsonValue stats = ctl.request("{\"verb\": \"stats\"}");
    ASSERT_EQ(stats.at("workers").array.size(), 1u);
    expectShape(stats.at("workers").array[0],
                merged(kWorkerShape, kWorkerHealthShape), {},
                "stats workers entry");

    // Before any probe answer an entry carries only the fleet's own
    // fields.
    ServeConfig unprobed_cfg = tcpConfig();
    unprobed_cfg.workerAddrs = {"tcp:127.0.0.1:1"};
    unprobed_cfg.probeIntervalMs = 0;
    Server unprobed(unprobed_cfg);
    unprobed.start();
    ServeClient ctl2(unprobed.listenAddress());
    expectShape(ctl2.request("{\"verb\": \"workers\"}")
                    .at("workers")
                    .array.at(0),
                kWorkerShape, {}, "unprobed workers entry");

    unprobed.stop(true);
    front.stop(true);
    worker.stop(true);
}

TEST(MultiNode, RejectingWorkerSpendsNoStreamRetry)
{
    SweepDriver offline(1);
    offline.setQuiet(true);
    ResultSet expect = offline.run(grid12());

    Server workerA(tcpConfig());
    ServeConfig b_cfg = tcpConfig();
    b_cfg.workers = 1;
    b_cfg.maxJobs = 1; // the captive job fills B's admission cap
    Server workerB(b_cfg);
    workerA.start();
    workerB.start();

    // B is healthy (it answers probes) but answers every submit with
    // {"ok": false, "reason": "queue_full"}: no point ever ran there.
    LineChannel slow(
        connectSocket(parseSocketAddr(workerB.listenAddress())));
    ASSERT_TRUE(slow.writeLine(
        "{\"verb\": \"submit\", \"bench\": \"gzip\", "
        "\"arch\": \"stream,ev8,ftb,seq\", \"widths\": [4, 8], "
        "\"insts\": 8000000, \"warmup\": 1000, \"jobs\": 1}"));
    std::string ack;
    ASSERT_TRUE(slow.readLine(ack));

    ServeConfig front_cfg = tcpConfig();
    front_cfg.workerAddrs = {workerA.listenAddress(),
                             workerB.listenAddress()};
    front_cfg.shardRetries = 0; // any spent stream retry fails the job
    Server front(front_cfg);
    front.start();

    // A rejected submit is refused work, not a lost stream: the chunk
    // re-queues at no cost and A absorbs it, bit-identically.
    Stream merged = collect(front.listenAddress(), kSubmit12);
    expectStreamMatches(merged, expect, true);
    EXPECT_EQ(front.metrics().value("shard_retries"), 0u);
    EXPECT_EQ(front.metrics().value("jobs_served"), 1u);
    EXPECT_EQ(workerA.metrics().value("rows_streamed"), 12u);

    front.stop(true);
    workerA.stop(true);
    workerB.stop(false); // cancel the captive job
}
