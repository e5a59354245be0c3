/**
 * @file
 * End-to-end and protocol tests for the sfetchd serve subsystem: an
 * in-process Server on a temp socket, real ServeClient connections,
 * concurrent streaming submits checked bit-identical against the
 * offline SweepDriver, and the protocol's structured error paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "serve/client.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/socket_io.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/workload_cache.hh"
#include "util/fault_inject.hh"

using namespace sfetch;

namespace
{

/** A fresh socket path per test (sun_path is short; keep it so). */
std::string
testSocket(const char *tag)
{
    return "/tmp/sfetch-test-" + std::to_string(::getpid()) + "-" +
           tag + ".sock";
}

ServeConfig
testConfig(const char *tag)
{
    ServeConfig cfg;
    cfg.socketPath = testSocket(tag);
    cfg.workers = 2;
    cfg.memBudgetBytes = std::size_t(64) << 20;
    cfg.quiet = true;
    return cfg;
}

/** The canonical 6-point submit the e2e tests sweep. */
constexpr const char *kSubmit6 =
    "{\"verb\": \"submit\", \"bench\": \"gzip\", "
    "\"arch\": \"stream,ev8,ftb\", \"widths\": [4, 8], "
    "\"insts\": 20000, \"warmup\": 4000}";

/** The offline grid matching kSubmit6 (same expansion order: width
 * outer, arch inner — mirroring the server's submit handler). */
std::vector<SweepPoint>
grid6()
{
    std::vector<SimConfig> cfgs;
    for (unsigned width : {4u, 8u})
        for (const char *arch : {"stream", "ev8", "ftb"}) {
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
    JsonValue ack;
    std::vector<JsonValue> frames; //!< row frames, arrival order
    JsonValue summary;
    bool done = false;
};

/** Submit @p submit_json and collect the whole stream. */
Stream
collect(const std::string &socket, const std::string &submit_json)
{
    Stream s;
    ServeClient client(socket);
    s.done = client.submitStream(
        submit_json,
        [&](const JsonValue &parsed, const std::string &) {
            if (s.ack.kind == JsonValue::Kind::Null) {
                s.ack = parsed;
            } else if (const JsonValue *d = parsed.find("done");
                       d && d->kind == JsonValue::Kind::Bool &&
                       d->boolean) {
                s.summary = parsed;
            } else {
                s.frames.push_back(parsed);
            }
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
    // The row object is the frame's final member.
    return frame_line.substr(at + key.size(),
                             frame_line.size() - at - key.size() - 1);
}

/**
 * The row payloads framed in @p lines, by point (rows stream in
 * completion order). A point framed twice fails the test; a missing
 * one shows as a short map.
 */
std::map<std::uint64_t, std::string>
payloadsByPoint(const std::vector<std::string> &lines)
{
    std::map<std::uint64_t, std::string> rows;
    for (const std::string &line : lines) {
        const JsonValue frame = JsonReader(line).parse();
        if (const JsonValue *p = frame.find("point")) {
            EXPECT_TRUE(rows.emplace(p->asU64(), rowPayload(line)).second)
                << "point " << p->asU64() << " framed twice";
        }
    }
    return rows;
}

/** The rows framed in @p lines, in point order. */
ResultSet
rowsByPoint(const std::vector<std::string> &lines)
{
    std::string doc = "{\"wall_seconds\": 0, \"rows\": [";
    for (const auto &[point, row] : payloadsByPoint(lines))
        doc += (doc.back() == '[' ? "" : ",") + row;
    return ResultSet::fromJson(doc + "]}");
}

/** @p row_json minus its trailing "wall_seconds" member, the one
 * measurement in a row: byte-compares mask it. */
std::string
maskWallClock(const std::string &row_json)
{
    const std::size_t at = row_json.rfind(", \"wall_seconds\": ");
    EXPECT_NE(at, std::string::npos) << row_json;
    return row_json.substr(0, at) + "}";
}

/** A state dir with no journal left over from earlier runs. */
std::string
freshStateDir(const char *tag)
{
    const std::string dir = "/tmp/sfetch-test-" +
                            std::to_string(::getpid()) + "-" + tag;
    ::mkdir(dir.c_str(), 0755);
    ::unlink((dir + "/jobs.ndjson").c_str());
    ::unlink((dir + "/jobs.ndjson.tmp").c_str());
    return dir;
}

/** A cheap single-point submit (one gzip/stream run). */
constexpr const char *kSubmit1 =
    "{\"verb\": \"submit\", \"bench\": \"gzip\", "
    "\"arch\": \"stream\", \"widths\": [8], "
    "\"insts\": 2000, \"warmup\": 400}";

/** @p submit_json (an object) with @p token added. */
std::string
withToken(const std::string &submit_json, const std::string &token)
{
    return submit_json.substr(0, submit_json.size() - 1) +
           ", \"token\": \"" + token + "\"}";
}

/** Poll @p server's metric @p name until it reads @p want (at most
 * ~10 s); true when it did. */
bool
awaitMetric(const Server &server, const std::string &name,
            std::uint64_t want)
{
    for (int i = 0; i < 1000; ++i) {
        if (server.metrics().value(name) == want)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

/** The exact `status` reply of a job. */
std::string
statusLine(std::uint64_t job, const std::string &state,
           std::uint64_t done, std::uint64_t of)
{
    return "{\"ok\": true, \"job\": " + std::to_string(job) +
           ", \"state\": \"" + state + "\", \"points_done\": " +
           std::to_string(done) + ", \"of\": " + std::to_string(of) +
           "}";
}

/** The exact one-line reply to a resubmit of a known token. */
std::string
duplicateLine(std::uint64_t job, const std::string &state,
              std::uint64_t done, std::uint64_t of)
{
    return "{\"ok\": true, \"job\": " + std::to_string(job) +
           ", \"duplicate\": true, \"state\": \"" + state +
           "\", \"points_done\": " + std::to_string(done) +
           ", \"of\": " + std::to_string(of) + ", \"done\": true}";
}

/** Every line the daemon sends back for @p submit_json. */
std::vector<std::string>
submitLines(const std::string &socket, const std::string &submit_json)
{
    std::vector<std::string> lines;
    ServeClient client(socket);
    client.submitStream(submit_json,
                        [&](const JsonValue &, const std::string &line) {
                            lines.push_back(line);
                            return true;
                        });
    return lines;
}

} // namespace

/**
 * Transport-parameterized suite: the core protocol guarantees hold
 * identically over a Unix socket and loopback TCP. Servers listen on
 * an ephemeral port under "tcp" (port 0); clients connect to the
 * resolved server.listenAddress().
 */
class ServeTransport : public ::testing::TestWithParam<const char *>
{
  protected:
    ServeConfig config(const char *tag) const
    {
        ServeConfig cfg = testConfig(tag);
        if (std::string(GetParam()) == "tcp")
            cfg.socketPath = "tcp:127.0.0.1:0";
        return cfg;
    }
};

INSTANTIATE_TEST_SUITE_P(
    Transports, ServeTransport, ::testing::Values("unix", "tcp"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

TEST_P(ServeTransport, ConcurrentSubmitsStreamBitIdenticalToOffline)
{
    // Offline reference, same grid, single-threaded.
    SweepDriver offline(1);
    offline.setQuiet(true);
    ResultSet expect = offline.run(grid6());
    ASSERT_EQ(expect.size(), 6u);

    Server server(config("e2e"));
    server.start();

    // Two clients submit the same 6-point sweep concurrently; the
    // daemon runs them on two workers. Client 0 takes the daemon's
    // default sweep share, client 1 pins one sweep thread.
    const std::string submits[2] = {
        kSubmit6, std::string(kSubmit6, std::strlen(kSubmit6) - 1) +
                      ", \"jobs\": 1}"};
    std::vector<std::string> raw_lines[2];
    Stream streams[2];
    auto submit = [&](int c) {
        ServeClient client(server.listenAddress());
        client.submitStream(
            submits[c],
            [&](const JsonValue &parsed, const std::string &raw) {
                raw_lines[c].push_back(raw);
                if (parsed.find("point"))
                    streams[c].frames.push_back(parsed);
                return true;
            });
    };
    std::thread t0(submit, 0);
    std::thread t1(submit, 1);
    t0.join();
    t1.join();

    for (int c = 0; c < 2; ++c) {
        // ack + 6 frames + summary
        ASSERT_EQ(raw_lines[c].size(), 8u) << "client " << c;
        ASSERT_EQ(streams[c].frames.size(), 6u) << "client " << c;

        // Rows stream in completion order, which is point order only
        // for the single-threaded sweep.
        for (std::size_t i = 0; i < streams[c].frames.size(); ++i) {
            const JsonValue &f = streams[c].frames[i];
            if (c == 1) {
                EXPECT_EQ(f.at("point").asU64(), i)
                    << "a jobs:1 sweep is point-ordered";
            }
            EXPECT_EQ(f.at("of").asU64(), 6u);
            EXPECT_TRUE(f.at("arena").asBool())
                << "6-point group fits a 64 MiB budget";
        }

        // Every point arrives exactly once, and every streamed row is
        // bit-identical to the offline sweep.
        ResultSet streamed = rowsByPoint(raw_lines[c]);
        ASSERT_EQ(streamed.size(), expect.size()) << "client " << c;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(streamed.at(i).bench, expect.at(i).bench);
            EXPECT_EQ(streamed.at(i).cfg, expect.at(i).cfg)
                << "client " << c << " row " << i;
            EXPECT_EQ(streamed.at(i).stats, expect.at(i).stats)
                << "client " << c << " row " << i
                << " diverged from the offline driver";
        }

        // The summary closes the stream in the done state.
        const JsonValue last =
            JsonReader(raw_lines[c].back()).parse();
        EXPECT_TRUE(last.at("done").asBool());
        EXPECT_EQ(last.at("state").asString(), "done");
        EXPECT_EQ(last.at("points_done").asU64(), 6u);
    }

    // The governor held the line: resident arena bytes never exceed
    // the budget (checked via the same stats the verb reports).
    const MetricsRegistry &st = server.metrics();
    EXPECT_EQ(st.value("jobs_submitted"), 2u);
    EXPECT_EQ(st.value("jobs_served"), 2u);
    EXPECT_EQ(st.value("rows_streamed"), 12u);
    EXPECT_EQ(st.value("arena_fallbacks"), 0u);
    EXPECT_LE(st.value("resident_arena_bytes"),
              st.value("mem_budget_bytes"));

    server.stop(true);
}

TEST(Serve, SweepThreadsDefaultToTheCoreShareAndAreClamped)
{
    SweepDriver offline(1);
    offline.setQuiet(true);
    ResultSet expect = offline.run(grid6());
    ASSERT_EQ(expect.size(), 6u);

    ServeConfig cfg = testConfig("share");
    Server server(cfg);
    server.start();

    // Omitted or 0: the daemon's share of the cores. Anything else is
    // clamped to the cores, however many threads the submit asks for.
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    const unsigned share = std::max(1u, cores / cfg.workers);
    const std::string open(kSubmit6, std::strlen(kSubmit6) - 1);
    const struct
    {
        const char *jobs;
        unsigned effective;
    } cases[] = {{"", share},
                 {", \"jobs\": 0", share},
                 {", \"jobs\": 100000", cores}};
    for (const auto &c : cases) {
        std::vector<std::string> raw;
        JsonValue ack;
        ServeClient client(server.listenAddress());
        ASSERT_TRUE(client.submitStream(
            open + c.jobs + "}",
            [&](const JsonValue &parsed, const std::string &line) {
                if (ack.kind == JsonValue::Kind::Null)
                    ack = parsed;
                raw.push_back(line);
                return true;
            }));
        EXPECT_EQ(ack.at("jobs").asU64(), c.effective) << c.jobs;

        // Whatever the thread count, the rows are the offline
        // driver's, byte for byte.
        const auto rows = payloadsByPoint(raw);
        ASSERT_EQ(rows.size(), expect.size()) << c.jobs;
        for (const auto &[point, row] : rows)
            EXPECT_EQ(maskWallClock(row),
                      maskWallClock(expect.rowJson(point)))
                << c.jobs << " point " << point;
    }
    server.stop(true);
}

TEST_P(ServeTransport, ProtocolErrorsAreStructuredAndNonFatal)
{
    Server server(config("proto"));
    server.start();
    ServeClient client(server.listenAddress());

    // Malformed JSON.
    JsonValue r = client.request("this is not json {");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "bad_json");

    // Unknown verb — the connection survived the bad line.
    r = client.request("{\"verb\": \"frobnicate\"}");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "unknown_verb");

    // Missing verb.
    r = client.request("{\"job\": 1}");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "unknown_verb");

    // Bad engine spec on submit.
    r = client.request("{\"verb\": \"submit\", "
                       "\"arch\": \"not-an-engine\", "
                       "\"bench\": \"gzip\"}");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "bad_spec");

    // Bad bench spec.
    r = client.request("{\"verb\": \"submit\", "
                       "\"bench\": \"not-a-bench\"}");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "bad_spec");

    // Unknown job id.
    r = client.request("{\"verb\": \"status\", \"job\": 999}");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "unknown_job");

    // After all that abuse, the connection still serves real work.
    r = client.request("{\"verb\": \"health\"}");
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_EQ(r.at("health").asString(), "ok");

    EXPECT_EQ(server.metrics().value("jobs_rejected"), 2u)
        << "the two bad submits";
    server.stop(true);
}

TEST(Serve, AdmissionControlRejectsWithReasons)
{
    // Points-per-job quota.
    {
        ServeConfig cfg = testConfig("admit1");
        cfg.maxPointsPerJob = 4;
        Server server(cfg);
        server.start();
        ServeClient client(cfg.socketPath);
        JsonValue r = client.request(kSubmit6); // expands to 6 > 4
        EXPECT_FALSE(r.at("ok").asBool());
        EXPECT_EQ(r.at("reason").asString(), "max_points_per_job");
        server.stop(true);
    }
    // Job-count quota.
    {
        ServeConfig cfg = testConfig("admit2");
        cfg.maxJobs = 0;
        Server server(cfg);
        server.start();
        ServeClient client(cfg.socketPath);
        JsonValue r = client.request(kSubmit6);
        EXPECT_FALSE(r.at("ok").asBool());
        EXPECT_EQ(r.at("reason").asString(), "queue_full");
        server.stop(true);
    }
    // Budget: a job that *requires* arenas it can never fit is
    // rejected at submit, before any simulation runs.
    {
        ServeConfig cfg = testConfig("admit3");
        cfg.memBudgetBytes = std::size_t(1) << 20;
        Server server(cfg);
        server.start();
        ServeClient client(cfg.socketPath);
        JsonValue r = client.request(
            "{\"verb\": \"submit\", \"bench\": \"gzip\", "
            "\"arch\": \"stream,ev8\", \"insts\": 1000000, "
            "\"arena\": \"require\"}");
        EXPECT_FALSE(r.at("ok").asBool());
        EXPECT_EQ(r.at("reason").asString(), "over_budget");
        EXPECT_EQ(server.metrics().value("jobs_rejected"), 1u);
        server.stop(true);
    }
}

// A working set past the ws_kb cap used to reach the simulator as 0
// bytes (the KiB-to-byte shift wrapped) and kill the daemon with a
// divide by zero; it is now the client's error, and the daemon keeps
// serving.
TEST(Serve, OutOfRangeWorkingSetIsRefusedAndTheDaemonKeepsServing)
{
    ServeConfig cfg = testConfig("wskb");
    Server server(cfg);
    server.start();
    {
        ServeClient client(cfg.socketPath);
        JsonValue r = client.request(
            "{\"verb\": \"submit\", "
            "\"bench\": \"loops:ws_kb=18014398509481984\", "
            "\"arch\": \"stream\", \"insts\": 20000}");
        EXPECT_FALSE(r.at("ok").asBool());
        EXPECT_EQ(r.at("reason").asString(), "bad_spec");
        EXPECT_NE(r.at("error").asString().find(
                      "'ws_kb' must be <= 1048576"),
                  std::string::npos)
            << r.at("error").asString();
    }

    Stream s = collect(cfg.socketPath, kSubmit6);
    ASSERT_TRUE(s.done);
    EXPECT_EQ(s.summary.at("state").asString(), "done");
    EXPECT_EQ(s.frames.size(), 6u);
    ServeClient client(cfg.socketPath);
    JsonValue r = client.request("{\"verb\": \"stats\"}");
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_EQ(r.at("jobs_served").asU64(), 1u);
    server.stop(true);
}

// Widths past the fetch bundle used to be acked: 32 failed only once
// the sweep ran, and 4294967304 wrapped to 8 and ran as width 8. Both
// submit forms now refuse them before admission, and the daemon keeps
// serving.
TEST(Serve, OutOfRangeWidthsAreRefusedAndTheDaemonKeepsServing)
{
    ServeConfig cfg = testConfig("width");
    Server server(cfg);
    server.start();
    const std::string grid = "{\"verb\": \"submit\", \"bench\": \"gzip\", "
                             "\"arch\": \"stream\", \"insts\": 2000, ";
    const std::string point =
        "{\"verb\": \"submit\", \"points\": [{\"bench\": \"gzip\", "
        "\"spec\": \"stream\", \"layout\": \"opt\", \"insts\": 2000, "
        "\"warmup\": 400, ";
    const std::vector<std::string> bad = {
        grid + "\"widths\": [4294967304]}",
        grid + "\"widths\": [32]}",
        grid + "\"widths\": [8, 0]}",
        grid + "\"widths\": 17}",
        point + "\"width\": 4294967304}]}",
        point + "\"width\": 32}]}",
    };
    for (const std::string &submit : bad) {
        // A fresh connection each: an acked submit would stream rows.
        ServeClient client(cfg.socketPath);
        JsonValue r = client.request(submit);
        EXPECT_FALSE(r.at("ok").asBool()) << submit;
        EXPECT_EQ(r.find("reason") ? r.at("reason").asString() : "",
                  "bad_spec")
            << submit;
    }
    EXPECT_EQ(server.metrics().value("jobs_rejected"), bad.size());

    Stream s = collect(cfg.socketPath, kSubmit6);
    ASSERT_TRUE(s.done);
    EXPECT_EQ(s.summary.at("state").asString(), "done");
    EXPECT_EQ(s.frames.size(), 6u);
    server.stop(true);
}

// A non-boolean drain flag used to read as true: `"drain": "no"`
// acked a draining shutdown. It is refused, the daemon keeps serving,
// and the next well-formed shutdown is the one that counts.
TEST(Serve, ShutdownRefusesANonBooleanDrainFlag)
{
    Server server(testConfig("drainflag"));
    server.start();
    ServeClient client(server.config().socketPath);
    JsonValue r =
        client.request("{\"verb\": \"shutdown\", \"drain\": \"no\"}");
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.find("reason") ? r.at("reason").asString() : "",
              "bad_spec");

    Stream s = collect(server.config().socketPath, kSubmit1);
    ASSERT_TRUE(s.done);
    EXPECT_EQ(s.summary.at("state").asString(), "done");

    r = client.request("{\"verb\": \"shutdown\", \"drain\": false}");
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_FALSE(r.at("drain").asBool());
    EXPECT_FALSE(server.waitShutdown()) << "the refused request latched";
    server.stop(true);
}

TEST(Serve, OverBudgetAutoJobFallsBackToLiveGeneration)
{
    SweepDriver offline(1);
    offline.setQuiet(true);
    ResultSet expect = offline.run(grid6());
    // The offline reference decoded an arena into the shared cache;
    // drop it so the "budget 0 stays honest" assertion below sees
    // only what the daemon itself made resident.
    WorkloadCache::instance().clear();

    ServeConfig cfg = testConfig("fallback");
    cfg.memBudgetBytes = 0; // nothing fits: every arena plan fails
    Server server(cfg);
    server.start();

    std::vector<std::string> raw;
    std::vector<JsonValue> frames;
    {
        ServeClient client(cfg.socketPath);
        EXPECT_TRUE(client.submitStream(
            kSubmit6,
            [&](const JsonValue &parsed, const std::string &line) {
                raw.push_back(line);
                if (parsed.find("point"))
                    frames.push_back(parsed);
                return true;
            }));
    }
    ASSERT_EQ(frames.size(), 6u);
    // The frames say so: these rows came from live generation.
    for (const JsonValue &f : frames)
        EXPECT_FALSE(f.at("arena").asBool());

    // Fallback is invisible in the numbers.
    ResultSet streamed = rowsByPoint(raw);
    ASSERT_EQ(streamed.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(streamed.at(i).stats, expect.at(i).stats)
            << "row " << i << " diverged under arena fallback";

    const MetricsRegistry &st = server.metrics();
    EXPECT_EQ(st.value("arena_fallbacks"), 1u);
    EXPECT_EQ(st.value("resident_arena_bytes"), 0u)
        << "budget 0 stayed honest";
    server.stop(true);
}

TEST(Serve, FramesReportPerPointWhetherASharedArenaWasReplayed)
{
    // Points 0 and 1 share (bench, layout, run length), so the
    // driver decodes one arena for them; point 2 is a group of one
    // and decodes a private window. The governor admits the job's
    // arena, yet each frame must say what its own point ran on.
    Server server(testConfig("pergroup"));
    server.start();
    Stream s = collect(
        server.listenAddress(),
        "{\"verb\": \"submit\", \"points\": ["
        "{\"bench\": \"gzip\", \"spec\": \"stream\", \"width\": 8, "
        "\"layout\": \"opt\", \"insts\": 20000, \"warmup\": 4000}, "
        "{\"bench\": \"gzip\", \"spec\": \"ev8\", \"width\": 8, "
        "\"layout\": \"opt\", \"insts\": 20000, \"warmup\": 4000}, "
        "{\"bench\": \"gzip\", \"spec\": \"stream\", \"width\": 8, "
        "\"layout\": \"opt\", \"insts\": 10000, \"warmup\": 2000}]}");
    ASSERT_TRUE(s.done);
    EXPECT_TRUE(s.ack.at("arena").asBool()) << "the job's plan";
    ASSERT_EQ(s.frames.size(), 3u);
    const bool expect[3] = {true, true, false};
    for (const JsonValue &f : s.frames) {
        const std::uint64_t point = f.at("point").asU64();
        ASSERT_LT(point, 3u);
        EXPECT_EQ(f.at("arena").asBool(), expect[point])
            << "point " << point;
    }
    // Not every point replayed a shared arena.
    EXPECT_EQ(s.summary.at("state").asString(), "done");
    EXPECT_FALSE(s.summary.at("arena").asBool());
    server.stop(true);
}

TEST(Serve, StatusCancelStatsAndShutdownVerbs)
{
    Server server(testConfig("verbs"));
    server.start();
    const std::string &sock = server.config().socketPath;

    Stream s = collect(sock, kSubmit6);
    ASSERT_TRUE(s.done);
    const std::uint64_t job = s.ack.at("job").asU64();

    ServeClient client(sock);
    JsonValue r = client.request(
        "{\"verb\": \"status\", \"job\": " + std::to_string(job) +
        "}");
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_EQ(r.at("state").asString(), "done");
    EXPECT_EQ(r.at("points_done").asU64(), 6u);
    EXPECT_EQ(r.at("of").asU64(), 6u);

    // Cancelling a finished job is a polite no-op.
    r = client.request("{\"verb\": \"cancel\", \"job\": " +
                       std::to_string(job) + "}");
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_FALSE(r.at("cancelled").asBool());

    r = client.request("{\"verb\": \"stats\"}");
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_EQ(r.at("jobs_served").asU64(), 1u);
    EXPECT_EQ(r.at("rows_streamed").asU64(), 6u);
    EXPECT_EQ(r.at("mem_budget_bytes").asU64(),
              server.config().memBudgetBytes);
    // The cached workloads' own bytes are reported, not budgeted:
    // nonzero once a job built one, and the cache's sum.
    EXPECT_GT(r.at("resident_workload_bytes").asU64(), 0u);
    EXPECT_EQ(r.at("resident_workload_bytes").asU64(),
              WorkloadCache::instance().workloadBytes());

    // The shutdown verb acks, then the daemon owner drains.
    r = client.request("{\"verb\": \"shutdown\", \"drain\": true}");
    EXPECT_TRUE(r.at("ok").asBool());
    EXPECT_TRUE(server.waitShutdown());
    server.stop(true);

    // Fully stopped: the socket file is gone and connecting fails.
    EXPECT_THROW(ServeClient dead(sock), std::runtime_error);
}

TEST(Serve, RetiredJobsAnswerStatusCancelAndDuplicatesAsBefore)
{
    Server server(testConfig("retired"));
    server.start();
    const std::string &sock = server.config().socketPath;

    // Four jobs streamed to completion, two with tokens.
    struct Run
    {
        std::string submit;
        std::string token;
        std::uint64_t points;
        std::uint64_t id = 0;
    };
    std::vector<Run> runs = {{kSubmit6, "", 6},
                             {withToken(kSubmit1, "ret-a"), "ret-a", 1},
                             {kSubmit1, "", 1},
                             {withToken(kSubmit6, "ret-b"), "ret-b", 6}};
    for (Run &run : runs) {
        Stream s = collect(sock, run.submit);
        ASSERT_TRUE(s.done);
        run.id = s.ack.at("job").asU64();
    }
    // Each retires once its stream has ended and its worker let go:
    // no Job object is left.
    ASSERT_TRUE(awaitMetric(server, "jobs_live", 0));
    EXPECT_EQ(server.metrics().value("jobs_queued"), 0u);
    EXPECT_EQ(server.metrics().value("jobs_running"), 0u);

    ServeClient client(sock);
    for (const Run &run : runs) {
        const std::string id = std::to_string(run.id);
        EXPECT_EQ(client.requestRaw("{\"verb\": \"status\", \"job\": " +
                                    id + "}"),
                  statusLine(run.id, "done", run.points, run.points));
        EXPECT_EQ(client.requestRaw("{\"verb\": \"cancel\", \"job\": " +
                                    id + "}"),
                  "{\"ok\": true, \"job\": " + id +
                      ", \"cancelled\": false}");
        if (run.token.empty())
            continue;
        // The token still names the job: one duplicate line, no run.
        EXPECT_EQ(submitLines(sock, run.submit),
                  std::vector<std::string>{duplicateLine(
                      run.id, "done", run.points, run.points)});
    }
    EXPECT_EQ(server.metrics().value("jobs_submitted"), runs.size())
        << "token resubmits never create a second job";
    EXPECT_EQ(server.metrics().value("jobs_live"), 0u);

    // Ids never issued stay unknown, either side of the retired ones.
    for (std::uint64_t unknown : {std::uint64_t(0), runs.back().id + 1}) {
        for (const char *verb : {"status", "cancel"}) {
            JsonValue r = client.request(
                std::string("{\"verb\": \"") + verb +
                "\", \"job\": " + std::to_string(unknown) + "}");
            EXPECT_FALSE(r.at("ok").asBool());
            EXPECT_EQ(r.at("reason").asString(), "unknown_job")
                << verb << " " << unknown;
        }
    }
    server.stop(true);
}

TEST(Serve, RecoveredJobIsNotRetiredBeforeItsTokenAttaches)
{
    // A crashed daemon's journal: one tokened job and one tokenless
    // job, both in flight.
    const std::string dir = freshStateDir("unattached");
    const std::string spec = withToken(kSubmit1, "t-wait");
    {
        JobJournal j(dir);
        j.submitted(4, "t-wait", spec);
        j.started(4);
        j.submitted(5, "", kSubmit1);
        j.started(5);
    }
    ServeConfig cfg = testConfig("unattached");
    cfg.stateDir = dir;
    Server server(cfg);
    server.start();
    ASSERT_EQ(server.metrics().value("jobs_recovered"), 2u);

    // Both re-run to completion. The tokenless one has no one to
    // stream to and retires; the tokened one keeps its rows for the
    // submitter.
    ASSERT_TRUE(awaitMetric(server, "jobs_served", 2));
    ASSERT_TRUE(awaitMetric(server, "jobs_live", 1));
    ServeClient client(cfg.socketPath);
    EXPECT_EQ(client.requestRaw("{\"verb\": \"status\", \"job\": 1}"),
              statusLine(1, "done", 1, 1));
    EXPECT_EQ(client.requestRaw("{\"verb\": \"status\", \"job\": 2}"),
              statusLine(2, "done", 1, 1));

    // The token attaches and receives the buffered row and summary.
    std::vector<std::string> lines = submitLines(cfg.socketPath, spec);
    ASSERT_EQ(lines.size(), 3u);
    const JsonValue ack = JsonReader(lines[0]).parse();
    EXPECT_TRUE(ack.at("attached").asBool());
    EXPECT_EQ(ack.at("job").asU64(), 1u);
    EXPECT_EQ(JsonReader(lines[1]).parse().at("point").asU64(), 0u);
    EXPECT_EQ(JsonReader(lines[2]).parse().at("state").asString(),
              "done");

    // Now it has streamed: it retires, and its token is a duplicate.
    ASSERT_TRUE(awaitMetric(server, "jobs_live", 0));
    EXPECT_EQ(submitLines(cfg.socketPath, spec),
              std::vector<std::string>{duplicateLine(1, "done", 1, 1)});
    server.stop(true);
}

TEST(Serve, DroppedStreamIsRetiredAndItsTokenStillAnswers)
{
    // Loopback TCP: the write after the submitter closes still lands
    // in the kernel, so the one-point job finishes `done` rather than
    // racing its own cancellation.
    ServeConfig cfg = testConfig("dropped");
    cfg.socketPath = "tcp:127.0.0.1:0";
    Server server(cfg);
    server.start();
    const std::string addr = server.listenAddress();

    const std::string spec = withToken(kSubmit1, "t-drop");
    std::uint64_t id = 0;
    {
        ServeClient client(addr);
        // Read the ack, then hang up without reading a row.
        EXPECT_FALSE(client.submitStream(
            spec, [&](const JsonValue &parsed, const std::string &) {
                id = parsed.at("job").asU64();
                return false;
            }));
    }
    ASSERT_NE(id, 0u);
    ServeClient ctl(addr);
    const std::string status =
        "{\"verb\": \"status\", \"job\": " + std::to_string(id) + "}";
    std::string reply;
    for (int i = 0; i < 1000; ++i) {
        reply = ctl.requestRaw(status);
        if (reply == statusLine(id, "done", 1, 1))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(reply, statusLine(id, "done", 1, 1));
    // The job and whatever rows it still held are freed.
    ASSERT_TRUE(awaitMetric(server, "jobs_live", 0));
    EXPECT_EQ(submitLines(addr, spec),
              std::vector<std::string>{duplicateLine(id, "done", 1, 1)});

    // A six-point job dropped mid-stream ends cancelled or done,
    // whichever its last point races, and retires either way: the
    // rows after the break are not kept for anyone.
    const std::string spec6 = withToken(kSubmit6, "t-drop6");
    {
        ServeClient client(addr);
        client.submitStream(
            spec6, [](const JsonValue &, const std::string &) {
                return false;
            });
    }
    ASSERT_TRUE(awaitMetric(server, "jobs_live", 0));
    const JsonValue last = ctl.request("{\"verb\": \"status\", \"job\": " +
                                       std::to_string(id + 1) + "}");
    const std::string state = last.at("state").asString();
    EXPECT_TRUE(state == "cancelled" || state == "done") << state;
    EXPECT_EQ(submitLines(addr, spec6),
              std::vector<std::string>{duplicateLine(
                  id + 1, state, last.at("points_done").asU64(), 6)});
    server.stop(true);
}

TEST(Serve, DrainingServerRejectsNewSubmits)
{
    Server server(testConfig("drain"));
    server.start();
    ServeClient client(server.config().socketPath);
    // Run one job to completion, then stop(drain) — afterwards the
    // socket is closed, so "draining" rejection needs the window
    // *during* stop. Instead exercise the reason directly: flip the
    // drain flag via the shutdown verb's request path and submit
    // before the owner acts on it.
    JsonValue r =
        client.request("{\"verb\": \"shutdown\", \"drain\": true}");
    EXPECT_TRUE(r.at("ok").asBool());
    // The server only drains once stop() runs; simulate the race by
    // stopping on another thread while submits arrive. A submit can
    // land in three windows: before stop() flips the drain flag
    // (accepted, drains normally), during the drain (a structured
    // "draining" rejection), or after the socket closed (a connect
    // refusal). Keep submitting until a rejecting window is hit.
    std::thread stopper([&] { server.stop(true); });
    bool refused = false;
    for (int i = 0; i < 500 && !refused; ++i) {
        try {
            ServeClient late(server.config().socketPath);
            late.submitStream(
                kSubmit1,
                [&](const JsonValue &parsed, const std::string &) {
                    if (const JsonValue *ok = parsed.find("ok");
                        ok && ok->kind == JsonValue::Kind::Bool &&
                        !ok->boolean) {
                        EXPECT_EQ(parsed.at("reason").asString(),
                                  "draining");
                        refused = true;
                    }
                    return true;
                });
        } catch (const std::runtime_error &) {
            // Socket already gone: equally a refusal.
            refused = true;
        }
    }
    EXPECT_TRUE(refused);
    stopper.join();
}

TEST_P(ServeTransport, JournalCrashRecoveryIsBitIdenticalAfterTokenAttach)
{
    SweepDriver offline(1);
    offline.setQuiet(true);
    ResultSet expect = offline.run(grid6());
    ASSERT_EQ(expect.size(), 6u);

    // A crashed daemon's journal, written by the journal itself: one
    // in-flight job with a client token (no terminal record), one
    // finished job, and the torn tail a kill -9 mid-append leaves.
    const std::string dir = freshStateDir("recov");
    const std::string spec6tok =
        std::string(kSubmit6).substr(0, std::string(kSubmit6).size() -
                                            1) +
        ", \"token\": \"t-rec\"}";
    {
        JobJournal j(dir);
        j.submitted(7, "t-rec", spec6tok);
        j.started(7);
        j.submitted(8, "", kSubmit1);
        j.finished(8, "done");
    }
    {
        std::ofstream torn(dir + "/jobs.ndjson", std::ios::app);
        torn << "{\"rec\": \"submitt";
    }

    ServeConfig cfg = config("recov");
    cfg.stateDir = dir;
    Server server(cfg);
    server.start();
    EXPECT_EQ(server.metrics().value("jobs_recovered"), 1u)
        << "the finished job and the torn line must not re-queue";
    EXPECT_EQ(server.metrics().value("journal_torn_lines"), 1u)
        << "the torn tail is skipped and counted";

    // The original submitter resubmits its token: it attaches to the
    // recovered job and receives every row (buffered or live).
    std::vector<std::string> raw;
    std::vector<JsonValue> frames;
    JsonValue ack;
    {
        ServeClient client(server.listenAddress());
        ASSERT_TRUE(client.submitStream(
            spec6tok,
            [&](const JsonValue &parsed, const std::string &line) {
                raw.push_back(line);
                if (ack.kind == JsonValue::Kind::Null)
                    ack = parsed;
                else if (parsed.find("point"))
                    frames.push_back(parsed);
                return true;
            }));
    }
    EXPECT_TRUE(ack.at("attached").asBool());
    ASSERT_EQ(frames.size(), 6u);

    // The crash-recovery contract: the re-run rows are bit-identical
    // to an offline sweep of the same grid.
    ResultSet streamed = rowsByPoint(raw);
    ASSERT_EQ(streamed.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(streamed.at(i).cfg, expect.at(i).cfg) << "row " << i;
        EXPECT_EQ(streamed.at(i).stats, expect.at(i).stats)
            << "recovered row " << i << " diverged from offline";
    }

    // A second resubmit of the same token is deduplicated: one
    // summary line, no third run.
    {
        ServeClient client(server.listenAddress());
        std::vector<JsonValue> lines;
        ASSERT_TRUE(client.submitStream(
            spec6tok,
            [&](const JsonValue &parsed, const std::string &) {
                lines.push_back(parsed);
                return true;
            }));
        ASSERT_EQ(lines.size(), 1u);
        EXPECT_TRUE(lines[0].at("duplicate").asBool());
        EXPECT_EQ(lines[0].at("state").asString(), "done");
        EXPECT_EQ(lines[0].at("points_done").asU64(), 6u);
    }
    EXPECT_EQ(server.metrics().value("jobs_submitted"), 0u)
        << "token resubmits never create a second job";
    server.stop(true);

    // The journal now carries the terminal record: a third daemon on
    // the same state dir has nothing to replay.
    ServeConfig cfg2 = config("recov2");
    cfg2.stateDir = dir;
    Server second(cfg2);
    second.start();
    EXPECT_EQ(second.metrics().value("jobs_recovered"), 0u);
    second.stop(true);
}

TEST(Serve, PerClientQuotaRejectsOverQuota)
{
    ServeConfig cfg = testConfig("quota");
    cfg.maxJobsPerClient = 1;
    Server server(cfg);
    server.start();

    // Occupy the quota with a long job on a raw channel (read only
    // the ack, leaving the job active).
    LineChannel slow(connectUnix(cfg.socketPath));
    ASSERT_TRUE(slow.writeLine(
        "{\"verb\": \"submit\", \"bench\": \"gzip\", "
        "\"arch\": \"stream\", \"widths\": [8], "
        "\"insts\": 500000, \"warmup\": 1000}"));
    std::string ack;
    ASSERT_TRUE(slow.readLine(ack));
    ASSERT_TRUE(JsonReader(ack).parse().at("ok").asBool());

    // Every connection from this process shares one SO_PEERCRED
    // identity, so a second submit trips the per-client cap.
    ServeClient client(cfg.socketPath);
    JsonValue r = client.request(kSubmit1);
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "over_quota");

    // Drain the first job; afterwards the quota is free again.
    std::string line;
    while (slow.readLine(line))
        if (line.find("\"done\": true") != std::string::npos)
            break;
    r = client.request(kSubmit1);
    EXPECT_TRUE(r.at("ok").asBool());
    // (request() reads one line — the ack; the stream that follows
    // dies with the client connection, which cancels cleanly.)
    server.stop(true);
}

TEST(Serve, TcpClientsGetIndependentPerClientQuotas)
{
    // Over TCP there is no SO_PEERCRED: peerId() falls back to the
    // peer's host:port, so each connection is its own quota bucket.
    // Before that fix every TCP client shared the daemon-uid bucket
    // and one busy client could starve all the others.
    ServeConfig cfg = testConfig("tcpquota");
    cfg.socketPath = "tcp:127.0.0.1:0";
    cfg.maxJobsPerClient = 1;
    Server server(cfg);
    server.start();
    const std::string addr = server.listenAddress();

    // Client A occupies its quota with a long job (read only the
    // ack, leaving the job active).
    LineChannel slow(connectSocket(parseSocketAddr(addr)));
    ASSERT_TRUE(slow.writeLine(
        "{\"verb\": \"submit\", \"bench\": \"gzip\", "
        "\"arch\": \"stream\", \"widths\": [8], "
        "\"insts\": 500000, \"warmup\": 1000}"));
    std::string ack;
    ASSERT_TRUE(slow.readLine(ack));
    ASSERT_TRUE(JsonReader(ack).parse().at("ok").asBool());

    // Client B is a distinct TCP peer (fresh ephemeral port): its
    // budget is independent, so the submit is admitted — under the
    // old shared-bucket keying this was an over_quota rejection.
    ServeClient other(addr);
    JsonValue r = other.request(kSubmit1);
    EXPECT_TRUE(r.at("ok").asBool())
        << "second TCP client hit the first client's quota";

    // Drain client A's job so the server stops cleanly.
    std::string line;
    while (slow.readLine(line))
        if (line.find("\"done\": true") != std::string::npos)
            break;
    server.stop(true);
}

TEST(Serve, WatchdogRetiresStuckJobAndFreesItsSlot)
{
    ServeConfig cfg = testConfig("stuck");
    cfg.pointTimeoutMs = 1; // any real point exceeds this
    cfg.maxJobs = 1;
    Server server(cfg);
    server.start();

    Stream s = collect(cfg.socketPath,
                       "{\"verb\": \"submit\", \"bench\": \"gzip\", "
                       "\"arch\": \"stream\", \"widths\": [8], "
                       "\"insts\": 400000, \"warmup\": 1000}");
    ASSERT_TRUE(s.done);
    EXPECT_EQ(s.summary.at("state").asString(), "stuck");
    EXPECT_EQ(server.metrics().value("jobs_stuck"), 1u);

    // The stuck job's admission slot is free even though its worker
    // is still grinding the captive point: with maxJobs = 1, a new
    // submit is admitted (no "queue_full") and reaches a terminal
    // summary. Under load the 1 ms watchdog can legitimately retire
    // this one too, so only admission and termination are asserted.
    Stream b = collect(cfg.socketPath, kSubmit1);
    ASSERT_TRUE(b.done);
    EXPECT_TRUE(b.ack.at("ok").asBool());
    const std::string b_state = b.summary.at("state").asString();
    EXPECT_TRUE(b_state == "done" || b_state == "stuck") << b_state;
    server.stop(true);
}

TEST(Serve, ConnectionCapRejectsBusyAndReapsOnDisconnect)
{
    ServeConfig cfg = testConfig("busy");
    cfg.maxConns = 1;
    Server server(cfg);
    server.start();

    auto first = std::make_unique<ServeClient>(cfg.socketPath);
    EXPECT_TRUE(
        first->request("{\"verb\": \"health\"}").at("ok").asBool());

    // The second connection is turned away with a structured error
    // before any request is read.
    {
        LineChannel turned(connectUnix(cfg.socketPath));
        std::string line;
        ASSERT_TRUE(turned.readLine(line));
        JsonValue r = JsonReader(line).parse();
        EXPECT_FALSE(r.at("ok").asBool());
        EXPECT_EQ(r.at("reason").asString(), "busy");
    }
    EXPECT_EQ(server.metrics().value("conns_rejected"), 1u);
    EXPECT_EQ(server.metrics().value("conns_active"), 1u);

    // Dropping the first connection frees its slot (the conn thread
    // retires itself; the accept loop reaps the handle).
    first.reset();
    bool readmitted = false;
    for (int i = 0; i < 200 && !readmitted; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        try {
            ServeClient again(cfg.socketPath);
            readmitted = again.request("{\"verb\": \"health\"}")
                             .at("ok")
                             .asBool();
        } catch (const std::exception &) {
        }
    }
    EXPECT_TRUE(readmitted);
    server.stop(true);
}

TEST(Serve, IdleConnectionsAreClosedWithATimeoutError)
{
    ServeConfig cfg = testConfig("idle");
    cfg.idleTimeoutMs = 50;
    Server server(cfg);
    server.start();

    LineChannel ch(connectUnix(cfg.socketPath));
    // Send nothing; the server's read deadline expires and it closes
    // the connection with a structured goodbye.
    std::string line;
    ASSERT_TRUE(ch.readLine(line));
    JsonValue r = JsonReader(line).parse();
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "timeout");
    EXPECT_FALSE(ch.readLine(line)); // then EOF
    EXPECT_EQ(server.metrics().value("conn_timeouts"), 1u);
    server.stop(true);
}

TEST(Serve, JournalFailureDegradesPersistenceNotService)
{
    ServeConfig cfg = testConfig("degraded");
    cfg.stateDir = freshStateDir("degraded");
    Server server(cfg);
    server.start();
    EXPECT_EQ(server.metrics().value("journal_degraded"), 0u);

    // The first journal append hits an injected fsync failure.
    fault::arm("journal.fsync", 0, 1);
    Stream s = collect(cfg.socketPath, kSubmit1);
    fault::disarmAll();
    ASSERT_TRUE(s.done);
    EXPECT_EQ(s.summary.at("state").asString(), "done");
    ASSERT_EQ(s.frames.size(), 1u);
    EXPECT_EQ(server.metrics().value("journal_degraded"), 1u);

    // Serving continues unharmed after persistence is lost.
    Stream s2 = collect(cfg.socketPath, kSubmit1);
    ASSERT_TRUE(s2.done);
    EXPECT_EQ(s2.summary.at("state").asString(), "done");
    server.stop(true);
}

TEST(Serve, DeeplyNestedRequestIsBadJsonNotACrash)
{
    Server server(testConfig("deep"));
    server.start();
    ServeClient client(server.config().socketPath);

    std::string deep(100'000, '[');
    deep.append(100'000, ']');
    JsonValue r = client.request(deep);
    EXPECT_FALSE(r.at("ok").asBool());
    EXPECT_EQ(r.at("reason").asString(), "bad_json");

    // The connection (and the daemon) shrug it off.
    r = client.request("{\"verb\": \"health\"}");
    EXPECT_TRUE(r.at("ok").asBool());
    server.stop(true);
}

namespace
{

/** The protocol table, one line per verb's refusals and one per
 * field (points' fields nested under "submit.points"). */
std::vector<std::string>
flattenProtocol()
{
    std::vector<std::string> out;
    auto fields = [&out](const std::string &at,
                         const std::vector<FieldSpec> &decl, auto &self)
        -> void {
        for (const FieldSpec &f : decl) {
            std::string line = at + "." + f.name + ": " + f.describe();
            if (f.required)
                line += ", required";
            if (f.dflt)
                line += ", default '" + std::string(f.dflt) + "'";
            for (const std::string &x : f.excludes)
                line += ", excludes " + x;
            out.push_back(line);
            self(at + "." + f.name, f.fields, self);
        }
    };
    const ProtocolSchema &schema = ProtocolSchema::instance();
    std::string any;
    for (const std::string &r : schema.connectionReasons)
        any += " " + r;
    out.push_back("any verb refuses:" + any);
    for (const VerbSpec &v : schema.verbs) {
        std::string reasons;
        for (const std::string &r : v.reasons)
            reasons += " " + r;
        out.push_back(std::string(v.name) + " refuses:" + reasons);
        fields(v.name, v.fields, fields);
    }
    return out;
}

/** What scripts, perfbench, fronts and journals rely on: a change
 * here is a protocol change, never a side effect. */
const std::vector<std::string> kProtocolShape = {
    "any verb refuses: bad_json unknown_verb busy timeout",
    "submit refuses: bad_spec draining max_points_per_job queue_full "
    "over_quota over_budget",
    "submit.arch: a string, default 'stream'",
    "submit.bench: a string, default 'gcc'",
    "submit.widths: an integer in 1..16 or a list of them, default '8'",
    "submit.layout: one of base|opt, default 'opt'",
    "submit.insts: an integer in 1..9007199254740991, default '1000000'",
    "submit.warmup: an integer in 0..9007199254740991",
    "submit.jobs: an integer in 0..9007199254740991",
    "submit.arena: one of auto|off|require, default 'auto'",
    "submit.token: a string, default ''",
    "submit.points: a list of 1..9007199254740991 point objects, "
    "excludes bench, excludes arch, excludes widths, excludes layout, "
    "excludes insts, excludes warmup",
    "submit.points.bench: a string, required",
    "submit.points.spec: a string, required",
    "submit.points.width: an integer in 1..16, required",
    "submit.points.layout: one of base|opt, required",
    "submit.points.insts: an integer in 1..9007199254740991, required",
    "submit.points.warmup: an integer in 0..9007199254740991, required",
    "status refuses: bad_spec unknown_job",
    "status.job: an integer in 0..9007199254740991, required",
    "cancel refuses: bad_spec unknown_job",
    "cancel.job: an integer in 0..9007199254740991, required",
    "stats refuses: bad_spec",
    "health refuses: bad_spec",
    "workers refuses: bad_spec",
    "register refuses: bad_spec",
    "register.worker: a non-empty string, required",
    "deregister refuses: bad_spec unknown_worker",
    "deregister.worker: a non-empty string, required",
    "shutdown refuses: bad_spec",
    "shutdown.drain: true or false, default 'true'",
};

/**
 * Send each of @p requests on its own connection while a long job
 * holds the daemon's only worker (ServeConfig::workers = 1), and
 * return each first reply. A submit the daemon wrongly admits is
 * cancelled while still queued behind that job, so it fails the
 * caller's checks instead of capturing the worker for hours.
 */
std::vector<JsonValue>
sendBehindBusyWorker(const std::string &socket,
                     const std::vector<std::string> &requests)
{
    ServeClient hold(socket);
    const JsonValue held = hold.request(
        "{\"verb\": \"submit\", \"bench\": \"gzip\", \"arch\": \"stream\", "
        "\"widths\": [1, 2, 3, 4, 5, 6, 7, 8], \"insts\": 2000000, "
        "\"jobs\": 1}");
    EXPECT_TRUE(held.at("ok").asBool());
    ServeClient ctl(socket);
    auto cancel = [&ctl](const JsonValue &ack) {
        ctl.request("{\"verb\": \"cancel\", \"job\": " +
                    std::to_string(ack.at("job").asU64()) + "}");
    };
    std::vector<JsonValue> replies;
    for (const std::string &request : requests) {
        ServeClient client(socket);
        replies.push_back(client.request(request));
        if (replies.back().find("points"))
            cancel(replies.back()); // an ack: admitted after all
    }
    cancel(held);
    return replies;
}

/** @p reply is a bad_spec refusal whose message names @p field. */
void
expectRefusedNaming(const JsonValue &reply, const std::string &field,
                    const std::string &request)
{
    EXPECT_FALSE(reply.at("ok").asBool()) << request;
    EXPECT_EQ(reply.find("reason") ? reply.at("reason").asString() : "",
              "bad_spec")
        << request;
    EXPECT_NE(reply.find("error")
                  ? reply.at("error").asString().find("'" + field + "'")
                  : std::string::npos,
              std::string::npos)
        << request;
}

} // namespace

TEST(Serve, ProtocolTableKeepsItsShape)
{
    EXPECT_EQ(flattenProtocol(), kProtocolShape);

    // Dispatch indexes the table by id.
    const ProtocolSchema &schema = ProtocolSchema::instance();
    for (const VerbSpec &v : schema.verbs)
        EXPECT_EQ(&schema.verb(v.id), &v) << v.name;
}

// A field no verb declares used to be ignored, so a typo ran the
// default. Every verb now refuses one by name, listing what it takes.
TEST(Serve, EveryVerbRefusesAnUndeclaredField)
{
    ServeConfig cfg = testConfig("extra");
    Server server(cfg);
    server.start();
    for (const VerbSpec &verb : ProtocolSchema::instance().verbs) {
        RequestWriter w(verb);
        for (const FieldSpec &f : verb.fields)
            if (f.required)
                w.set(f.name, f.kind == FieldSpec::Kind::U64 ? "1" : "x");
        std::string request = w.str();
        request.insert(request.size() - 1, ", \"zzz_extra\": 5");
        ServeClient client(cfg.socketPath);
        const JsonValue r = client.request(request);
        expectRefusedNaming(r, "zzz_extra", request);
        std::string declared;
        for (const FieldSpec &f : verb.fields)
            declared += (declared.empty() ? "" : ", ") + std::string(f.name);
        EXPECT_NE(r.at("error").asString().find(
                      "declared: " + (declared.empty() ? "none" : declared)),
                  std::string::npos)
            << r.at("error").asString();
    }
    EXPECT_EQ(server.metrics().value("jobs_rejected"), 1u) << "the submit";
    EXPECT_FALSE(server.metrics().value("draining"));

    Stream s = collect(cfg.socketPath, kSubmit1);
    ASSERT_TRUE(s.done);
    EXPECT_EQ(s.summary.at("state").asString(), "done");
    server.stop(true);
}

// Specs the model cannot build used to be acked and then crash or
// wedge the daemon: a line past one L1I way left the cache 0 sets
// (SIGSEGV), `depth=2^32` narrowed to 0 helper levels (SIGSEGV), and
// `max_stream=2^32` narrowed to 0 and the job never ended. Each is now
// the client's bad_spec, naming the parameter, and the daemon keeps
// serving.
TEST(Serve, UnbuildableSpecsAreRefusedAndTheDaemonKeepsServing)
{
    ServeConfig cfg = testConfig("unbuildable");
    Server server(cfg);
    server.start();
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"\"bench\": \"gzip\", \"arch\": \"seq:line=65536\"", "line"},
        {"\"bench\": \"server:depth=4294967296\", \"arch\": \"stream\"",
         "depth"},
        {"\"bench\": \"gzip\", \"arch\": \"stream:max_stream=4294967296\"",
         "max_stream"},
    };
    for (const auto &[fields, param] : bad) {
        const std::string submit =
            "{\"verb\": \"submit\", " + fields + ", \"insts\": 20000}";
        ServeClient client(cfg.socketPath);
        expectRefusedNaming(client.request(submit), param, submit);
    }
    EXPECT_EQ(server.metrics().value("jobs_rejected"), bad.size());

    Stream s = collect(cfg.socketPath, kSubmit6);
    ASSERT_TRUE(s.done);
    EXPECT_EQ(s.summary.at("state").asString(), "done");
    EXPECT_EQ(s.frames.size(), 6u);
    server.stop(true);
}

// Misspelled fields used to be ignored: "widhts": [2] ran at width 8.
// A number past 2^53 used to be rounded to the nearest double. Each is
// now refused by name, and the daemon keeps serving.
TEST(Serve, MisspelledFieldsAndInexactNumbersAreRefused)
{
    ServeConfig cfg = testConfig("typo");
    cfg.workers = 1;
    Server server(cfg);
    server.start();
    const std::string grid = "{\"verb\": \"submit\", \"bench\": \"gzip\", "
                             "\"arch\": \"stream\", \"insts\": 2000, ";
    const std::vector<std::pair<std::string, std::string>> bad = {
        {grid + "\"widhts\": [2]}", "widhts"},
        {grid + "\"lay0ut\": \"base\"}", "lay0ut"},
        {"{\"verb\": \"submit\", \"points\": [{\"bench\": \"gzip\", "
         "\"spec\": \"stream\", \"width\": 8, \"layout\": \"opt\", "
         "\"insts\": 2000, \"warmup\": 400, \"widht\": 2}]}",
         "widht"},
        {"{\"verb\": \"submit\", \"bench\": \"gzip\", \"arch\": \"stream\", "
         "\"insts\": 9007199254740993}",
         "insts"},
        {"{\"verb\": \"status\", \"job\": 1, \"extra\": 5}", "extra"},
    };
    std::vector<std::string> requests;
    for (const auto &[request, field] : bad)
        requests.push_back(request);
    const std::vector<JsonValue> replies =
        sendBehindBusyWorker(cfg.socketPath, requests);
    for (std::size_t i = 0; i < bad.size(); ++i)
        expectRefusedNaming(replies[i], bad[i].second, bad[i].first);
    EXPECT_EQ(server.metrics().value("jobs_rejected"), 4u)
        << "every refused submit counts";

    Stream s = collect(cfg.socketPath, kSubmit1);
    ASSERT_TRUE(s.done);
    EXPECT_EQ(s.summary.at("state").asString(), "done");
    server.stop(true);
}

// The arena estimate used to multiply and sum in size_t unchecked: an
// estimate that wrapped to a few bytes admitted an "arena": "require"
// job that could never fit, and its point then held the worker past
// any drain. Estimates now saturate, so such a job is refused
// over_budget; its grid form, with insts past 2^53, is a bad_spec.
TEST(Serve, WrappedArenaEstimateIsRefusedAndTheDaemonKeepsServing)
{
    ServeConfig cfg = testConfig("wrap");
    cfg.workers = 1;
    Server server(cfg);
    server.start();

    // 86 shared-arena groups (two engines each, told apart by insts)
    // whose entries sum to kWraps, so 12-byte estimates sum to
    // 2^64 + 8. Every number is below 2^53.
    const std::uint64_t kWraps = 1537228672809129302ull;
    const std::uint64_t groups = 86, warmup = kMaxExactU64;
    std::uint64_t left = kWraps - groups * (warmup + kFetchAheadMargin);
    const std::uint64_t base = left / groups;
    std::string points;
    for (std::uint64_t g = 0; g < groups; ++g) {
        const std::uint64_t insts = g + 1 == groups ? left : base + g;
        left -= insts;
        for (const char *spec : {"stream", "ev8"})
            points += std::string(points.empty() ? "" : ", ") +
                      "{\"bench\": \"gzip\", \"spec\": \"" + spec +
                      "\", \"width\": 8, \"layout\": \"opt\", "
                      "\"insts\": " + std::to_string(insts) +
                      ", \"warmup\": " + std::to_string(warmup) + "}";
    }
    const std::vector<JsonValue> replies = sendBehindBusyWorker(
        cfg.socketPath,
        {"{\"verb\": \"submit\", \"points\": [" + points +
             "], \"arena\": \"require\"}",
         "{\"verb\": \"submit\", \"bench\": \"gzip\", \"arch\": "
         "\"seq,ev8\", \"insts\": 1537228672809129302, \"warmup\": 0, "
         "\"arena\": \"require\"}"});
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_FALSE(replies[0].at("ok").asBool());
    EXPECT_EQ(replies[0].find("reason") ? replies[0].at("reason").asString()
                                        : "",
              "over_budget");
    expectRefusedNaming(replies[1], "insts", "grid form");
    EXPECT_EQ(server.metrics().value("jobs_rejected"), 2u);

    Stream s = collect(cfg.socketPath, kSubmit1);
    ASSERT_TRUE(s.done);
    EXPECT_EQ(s.summary.at("state").asString(), "done");
    server.stop(true);
}

// Recovery replays the raw submit lines an older daemon journalled
// through today's check: a line it refuses is dropped as unreplayable,
// and the rest re-queue.
TEST(Serve, JournalReplayDropsASubmitTheProtocolRefuses)
{
    const std::string dir = freshStateDir("replaycheck");
    {
        JobJournal j(dir);
        j.submitted(1, "ok-token", kSubmit1);
        std::string typo = kSubmit1;
        typo.insert(typo.size() - 1, ", \"widhts\": [2]");
        j.submitted(2, "typo-token", typo);
    }
    ServeConfig cfg = testConfig("replaycheck");
    cfg.stateDir = dir;
    Server server(cfg);
    server.start();
    EXPECT_EQ(server.metrics().value("jobs_recovered"), 1u);

    // The re-queued job runs (its rows buffer for its submitter);
    // the dropped one is gone.
    ServeClient client(cfg.socketPath);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    JsonValue st;
    do {
        st = client.request("{\"verb\": \"status\", \"job\": 1}");
        if (st.at("ok").asBool() && st.at("state").asString() == "done")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } while (std::chrono::steady_clock::now() < deadline);
    EXPECT_EQ(st.at("state").asString(), "done");
    JsonValue gone = client.request("{\"verb\": \"status\", \"job\": 2}");
    EXPECT_EQ(gone.find("reason") ? gone.at("reason").asString() : "",
              "unknown_job");
    server.stop(true);
}

// sfetchctl builds every request from the table: a command's
// arguments and options are checked against it, so an extra argument
// or a list where one number belongs is a usage error, not a value
// silently dropped.
TEST(Serve, CommandLineRequestsComeFromTheTable)
{
    const ProtocolSchema &schema = ProtocolSchema::instance();
    EXPECT_EQ(schema.commandRequest({"status", "7"}, {}),
              "{\"verb\": \"status\", \"job\": 7}");
    EXPECT_EQ(schema.commandRequest({"shutdown"}, {{"drain", "false"}}),
              "{\"verb\": \"shutdown\", \"drain\": false}");
    EXPECT_EQ(schema.commandRequest(
                  {"submit"}, {{"bench", "gzip"}, {"widths", "4,8"},
                               {"insts", "50000"}, {"layout", "base"}}),
              "{\"verb\": \"submit\", \"bench\": \"gzip\", \"insts\": "
              "50000, \"layout\": \"base\", \"widths\": [4, 8]}");
    const std::vector<std::pair<std::vector<std::string>,
                                std::map<std::string, std::string>>>
        usage_errors = {
            {{}, {}},
            {{"frobnicate"}, {}},
            {{"status"}, {}},
            {{"status", "1", "2"}, {}},
            {{"status", "one"}, {}},
            {{"stats", "7"}, {}},
            {{"register"}, {}},
            {{"submit"}, {{"jobs", "2,3"}}},
            {{"submit"}, {{"widths", "4,32"}}},
            {{"submit"}, {{"layout", "sideways"}}},
            {{"submit"}, {{"insts", "0"}}},
            {{"submit"}, {{"insts", "9007199254740993"}}},
            {{"submit"}, {{"drain", "false"}}},
            {{"status", "1"}, {{"insts", "5"}}},
        };
    for (const auto &[args, options] : usage_errors) {
        std::string what;
        for (const std::string &a : args)
            what += a + " ";
        EXPECT_THROW(schema.commandRequest(args, options),
                     std::invalid_argument)
            << what;
    }
}
