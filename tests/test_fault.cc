/**
 * @file
 * Robustness suite: the fault-injection harness itself, every
 * registered injection point exercised at its natural layer, the
 * JSON and SFTR corruption corpora, LineChannel deadlines, the
 * client's connect retry, and the job journal's recovery semantics.
 * The contract under test everywhere: corrupt input and injected
 * failures surface as structured errors (a false return, a typed
 * exception, a degraded flag) — never a crash, never a silently
 * wrong result.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "serve/client.hh"
#include "serve/journal.hh"
#include "serve/jsonio.hh"
#include "serve/socket_io.hh"
#include "sim/cli.hh"
#include "sim/driver.hh"
#include "sim/workload_cache.hh"
#include "util/fault_inject.hh"

using namespace sfetch;

namespace
{

std::string
tmpPath(const char *tag)
{
    return "/tmp/sfetch-fault-" + std::to_string(::getpid()) + "-" +
           tag;
}

/** A state dir with no journal left over from earlier runs. */
std::string
freshStateDir(const char *tag)
{
    const std::string dir = tmpPath(tag);
    ::mkdir(dir.c_str(), 0755);
    ::unlink((dir + "/jobs.ndjson").c_str());
    ::unlink((dir + "/jobs.ndjson.tmp").c_str());
    return dir;
}

/** Every test leaves the process-global registry disarmed. */
class FaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarmAll(); }
};

} // namespace

TEST_F(FaultTest, CountedTriggerFiresExactOccurrences)
{
    ASSERT_TRUE(fault::compiledIn());
    const std::uint64_t h0 = fault::hits("socket.send");
    const std::uint64_t f0 = fault::fired("socket.send");
    fault::arm("socket.send", 2, 3); // pass 2, fail 3, then disarm
    std::vector<bool> got;
    for (int i = 0; i < 8; ++i)
        got.push_back(fault::shouldFail("socket.send"));
    const std::vector<bool> want{false, false, true, true,
                                 true,  false, false, false};
    EXPECT_EQ(got, want);
    EXPECT_EQ(fault::hits("socket.send"), h0 + 8);
    EXPECT_EQ(fault::fired("socket.send"), f0 + 3);
}

TEST_F(FaultTest, RateTriggerIsReplayableFromSeed)
{
    auto draw = [] {
        fault::armRate("socket.recv", 0.3, 1234);
        std::vector<bool> v;
        for (int i = 0; i < 64; ++i)
            v.push_back(fault::shouldFail("socket.recv"));
        return v;
    };
    const std::vector<bool> first = draw();
    EXPECT_EQ(first, draw()) << "same (site, rate, seed) must "
                                "reproduce the same failure pattern";
    // A 0.3 rate over 64 draws fires at least once and not always.
    int fired = 0;
    for (bool b : first)
        fired += b;
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, 64);
}

TEST_F(FaultTest, EveryRegisteredSiteArmsAndFires)
{
    // A new SFETCH_FAULT() call site must be added to kKnownSites
    // (arm() rejects unknown names), and every listed site must be
    // armable and must actually fail when armed.
    for (const char *site : fault::kKnownSites) {
        fault::disarmAll();
        const std::uint64_t f0 = fault::fired(site);
        ASSERT_NO_THROW(fault::arm(site, 0, 1)) << site;
        EXPECT_TRUE(fault::shouldFail(site)) << site;
        EXPECT_FALSE(fault::shouldFail(site)) << site << " disarms "
                                                         "after firing";
        EXPECT_EQ(fault::fired(site), f0 + 1) << site;
    }
    EXPECT_THROW(fault::arm("no.such.site", 0, 1),
                 std::invalid_argument);
}

TEST_F(FaultTest, ConfigureParsesTheEnvGrammar)
{
    fault::configure("socket.send=1,2;journal.fsync=0,1");
    EXPECT_FALSE(fault::shouldFail("socket.send")); // skip 1
    EXPECT_TRUE(fault::shouldFail("socket.send"));
    EXPECT_TRUE(fault::shouldFail("socket.send"));
    EXPECT_FALSE(fault::shouldFail("socket.send"));
    EXPECT_TRUE(fault::shouldFail("journal.fsync"));

    EXPECT_THROW(fault::configure("bogus.site=0"),
                 std::invalid_argument);
    EXPECT_THROW(fault::configure("socket.send=notanumber"),
                 std::invalid_argument);
}

TEST_F(FaultTest, InjectedConnectFailsAndRetrySurvivesIt)
{
    const std::string sock = tmpPath("connect.sock");
    int lfd = listenUnix(sock);
    ASSERT_GE(lfd, 0);

    // Without retries the injected refusal is fatal.
    fault::arm("socket.connect", 0, 1);
    EXPECT_THROW(ServeClient dead(sock), std::runtime_error);

    // With retries the client rides out two refusals and connects on
    // the third attempt (millisecond backoff keeps the test quick).
    const std::uint64_t f0 = fault::fired("socket.connect");
    fault::arm("socket.connect", 0, 2);
    ServeClient::ConnectRetry retry;
    retry.retries = 3;
    retry.baseDelayMs = 1;
    retry.maxDelayMs = 2;
    ASSERT_NO_THROW(ServeClient alive(sock, retry));
    EXPECT_EQ(fault::fired("socket.connect"), f0 + 2);

    ::close(lfd);
    ::unlink(sock.c_str());
}

TEST_F(FaultTest, InjectedRecvAndSendFailTheChannelNotTheProcess)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineChannel a(fds[0]);
    LineChannel b(fds[1]);

    fault::arm("socket.send", 0, 1);
    EXPECT_FALSE(a.writeLine("{\"x\": 1}"));
    EXPECT_FALSE(a.timedOut()) << "an injected peer-vanished is an "
                                  "error, not a deadline";
    EXPECT_TRUE(a.writeLine("{\"x\": 2}")); // trigger spent

    fault::arm("socket.recv", 0, 1);
    std::string line;
    EXPECT_FALSE(b.readLine(line));
    EXPECT_TRUE(b.readLine(line)); // the delivered line is intact
    EXPECT_EQ(line, "{\"x\": 2}");
}

TEST_F(FaultTest, TcpConnectFaultFailsAndRetrySurvivesIt)
{
    // Same socket.connect site, TCP transport: an ephemeral loopback
    // listener stands in for the daemon.
    int lfd = listenTcp("127.0.0.1", 0);
    ASSERT_GE(lfd, 0);
    const SocketAddr addr =
        boundAddr(lfd, parseSocketAddr("tcp:127.0.0.1:0"));
    ASSERT_NE(addr.port, 0);

    fault::arm("socket.connect", 0, 1);
    EXPECT_THROW(ServeClient dead(addr.text()), std::runtime_error);

    fault::arm("socket.connect", 0, 2);
    ServeClient::ConnectRetry retry;
    retry.retries = 3;
    retry.baseDelayMs = 1;
    retry.maxDelayMs = 2;
    ASSERT_NO_THROW(ServeClient alive(addr.text(), retry));

    ::close(lfd);
}

TEST_F(FaultTest, InjectedRecvAndSendFailATcpChannelNotTheProcess)
{
    // The recv/send fault sites sit in LineChannel, below the
    // transport split — prove they bite a real TCP pair too.
    int lfd = listenTcp("127.0.0.1", 0);
    ASSERT_GE(lfd, 0);
    const SocketAddr addr =
        boundAddr(lfd, parseSocketAddr("tcp:127.0.0.1:0"));
    LineChannel a(connectTcp(addr.host, addr.port));
    int accepted = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(accepted, 0);
    LineChannel b(accepted);

    fault::arm("socket.send", 0, 1);
    EXPECT_FALSE(a.writeLine("{\"x\": 1}"));
    EXPECT_TRUE(a.writeLine("{\"x\": 2}")); // trigger spent

    fault::arm("socket.recv", 0, 1);
    std::string line;
    EXPECT_FALSE(b.readLine(line));
    EXPECT_TRUE(b.readLine(line)); // the delivered line is intact
    EXPECT_EQ(line, "{\"x\": 2}");

    // Each side knows who the other is: host:port, never empty.
    EXPECT_NE(a.peerId().find("127.0.0.1:"), std::string::npos);
    EXPECT_NE(b.peerId().find("127.0.0.1:"), std::string::npos);
    EXPECT_NE(a.peerId(), b.peerId());
    ::close(lfd);
}

TEST_F(FaultTest, SocketAddressTyposFailLoudly)
{
    // Well-formed addresses round-trip through the parser...
    EXPECT_EQ(parseSocketAddr("unix:/tmp/x.sock").text(),
              "unix:/tmp/x.sock");
    EXPECT_EQ(parseSocketAddr("/tmp/x.sock").text(),
              "unix:/tmp/x.sock");
    EXPECT_EQ(parseSocketAddr("tcp:127.0.0.1:7777").text(),
              "tcp:127.0.0.1:7777");
    EXPECT_EQ(parseSocketAddr("tcp:[::1]:7777").host, "::1");
    EXPECT_EQ(parseSocketAddr("tcp::7777").host, "");

    // ...and typos are structured errors, not surprise connects.
    for (const char *bad :
         {"", "unix:", "tcp:", "tcp:localhost", "tcp:host:",
          "tcp:host:notaport", "tcp:host:12x", "tcp:host:65536",
          "tcp:host:-1", "tcp:[::1]7777"})
        EXPECT_THROW(parseSocketAddr(bad), std::invalid_argument)
            << "accepted '" << bad << "'";
}

TEST_F(FaultTest, JsonNumberEmitsNullForNonFiniteValues)
{
    // %.17g would print "nan"/"inf" — not JSON; a daemon streaming
    // such a row would kill every consumer's parser mid-sweep. The
    // writer now emits null, which round-trips through our reader.
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "null");
    EXPECT_EQ(jsonNumber(-HUGE_VAL), "null");
    EXPECT_EQ(jsonNumber(1.5), "1.5");

    const std::string doc =
        "{\"ok\": " + jsonNumber(std::nan("")) + "}";
    JsonValue parsed = JsonReader(doc).parse();
    EXPECT_EQ(parsed.at("ok").kind, JsonValue::Kind::Null);
}

TEST_F(FaultTest, JsonU64RejectsNegativeAndFractionalNumbers)
{
    EXPECT_EQ(JsonReader("{\"n\": 42}").parse().at("n").asU64(), 42u);
    for (const char *doc :
         {"{\"n\": -1}", "{\"n\": 1.5}", "{\"n\": 2e64}",
          "{\"n\": \"7\"}", "{\"n\": null}"})
        EXPECT_THROW(JsonReader(doc).parse().at("n").asU64(),
                     std::runtime_error)
            << "accepted " << doc;
}

TEST_F(FaultTest, CliParseU64RejectsGarbageNumbers)
{
    EXPECT_EQ(CliParser::parseU64("0"), 0u);
    EXPECT_EQ(CliParser::parseU64("18446744073709551615"),
              18446744073709551615ull);
    // strtoull would silently accept all of these (stopping at the
    // first bad character or wrapping); the CLI must not.
    for (const char *bad : {"", "5x", "x5", "-1", "1.5", " 7", "7 ",
                            "0x10", "18446744073709551616"})
        EXPECT_THROW(CliParser::parseU64(bad), std::invalid_argument)
            << "accepted '" << bad << "'";
}

TEST_F(FaultTest, InjectedJournalFailuresDegradeNotCrash)
{
    for (const char *site : {"journal.append", "journal.fsync"}) {
        const std::string dir = freshStateDir("journal");
        JobJournal j(dir);
        fault::arm(site, 0, 1);
        j.submitted(1, "tok", "{\"verb\": \"submit\"}");
        EXPECT_TRUE(j.degraded()) << site;
        // Degraded journaling is silent towards the caller: later
        // appends no-op instead of throwing.
        ASSERT_NO_THROW(j.started(1)) << site;
        ASSERT_NO_THROW(j.finished(1, "done")) << site;
        fault::disarmAll();
    }
}

TEST_F(FaultTest, InjectedArenaAllocThrowsBadAlloc)
{
    WorkloadCache &cache = WorkloadCache::instance();
    cache.clear();
    const PlacedWorkload &gzip = cache.get("gzip");
    fault::arm("arena.alloc", 0, 1);
    EXPECT_THROW(gzip.arena(true, 30'000), std::bad_alloc);
    EXPECT_EQ(gzip.cachedArena(true, 0), nullptr) << "no partial arena";
    EXPECT_EQ(gzip.arenaBytesResident(), 0u) << "nor a decode counted";
    auto arena = gzip.arena(true, 30'000); // trigger spent
    ASSERT_TRUE(arena);
    EXPECT_GT(arena->bytes(), 0u);
}

TEST_F(FaultTest, DriverDegradesToLiveGenerationUnderAllocFaults)
{
    WorkloadCache::instance().clear();
    // Two points sharing one (workload, layout, length) group, so
    // the driver plans a shared arena for them.
    std::vector<SimConfig> cfgs;
    for (unsigned width : {4u, 8u}) {
        SimConfig cfg("stream");
        cfg.width = width;
        cfg.insts = 20'000;
        cfg.warmupInsts = 4'000;
        cfgs.push_back(cfg);
    }
    auto points = SweepDriver::grid({"gzip"}, cfgs);

    SweepDriver ref(1);
    ref.setQuiet(true);
    ResultSet expect = ref.run(points);

    WorkloadCache::instance().clear();
    fault::arm("arena.alloc", 0, 100); // every decode fails
    SweepDriver faulted(1);
    faulted.setQuiet(true);
    ResultSet got = faulted.run(points);
    fault::disarmAll();

    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(got.at(i).stats, expect.at(i).stats)
            << "row " << i << " diverged under arena-alloc faults";
}

// A run that throws inside a parallel sweep ends the binary with one
// `<tool>: <error>` line and exit 1; the exception never escapes main.
TEST_F(FaultTest, FailedSweepRunIsOneErrorLineAndExitOne)
{
    std::vector<SimConfig> cfgs;
    for (unsigned width : {4u, 8u}) {
        SimConfig cfg("stream");
        cfg.width = width;
        cfg.insts = 20'000;
        cfg.warmupInsts = 4'000;
        cfgs.push_back(cfg);
    }
    const auto points = SweepDriver::grid({"gzip", "loops"}, cfgs);

    fault::arm("sim.run", 0, 100); // every run fails
    ::testing::internal::CaptureStderr();
    const int rc = runMain("sfetchsim", [&] {
        SweepDriver(2).run(points);
        return 0;
    });
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 1);
    EXPECT_EQ(err, "sfetchsim: runOn: injected fault at sim.run\n");
    EXPECT_GE(fault::fired("sim.run"), 1u);
}

TEST_F(FaultTest, JsonCorruptionCorpusThrowsNeverCrashes)
{
    const char *corpus[] = {
        "",
        "   ",
        "{",
        "[1, 2",
        "\"unterminated",
        "{\"a\": }",
        "{\"a\" 1}",
        "nul",
        "tru",
        "{} trailing",
        "{\"a\": 1} {\"b\": 2}",
        "{\"a\": 1,}",
        "[,]",
        "{\"\\",
    };
    for (const char *doc : corpus)
        EXPECT_THROW(JsonReader(doc).parse(), std::runtime_error)
            << "corpus doc: '" << doc << "'";
}

TEST_F(FaultTest, JsonNestingDepthIsCappedNotStackFatal)
{
    // Exactly at the cap: fine.
    std::string at_cap(JsonReader::kMaxDepth, '[');
    at_cap.append(JsonReader::kMaxDepth, ']');
    ASSERT_NO_THROW(JsonReader(at_cap).parse());

    // One past the cap: malformed input like any other.
    std::string over(JsonReader::kMaxDepth + 1, '[');
    over.append(JsonReader::kMaxDepth + 1, ']');
    EXPECT_THROW(JsonReader(over).parse(), std::runtime_error);

    // The hostile case the cap exists for: a line of 100k brackets
    // must be a structured error, not a blown stack.
    std::string hostile(100'000, '[');
    EXPECT_THROW(JsonReader(hostile).parse(), std::runtime_error);

    // Siblings don't accumulate depth: a flat array of many small
    // objects is deeper than nothing.
    std::string flat = "[";
    for (int i = 0; i < 200; ++i)
        flat += (i ? ",{}" : "{}");
    flat += "]";
    ASSERT_NO_THROW(JsonReader(flat).parse());
}

TEST_F(FaultTest, ReadDeadlineExpiresThenChannelStaysUsable)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineChannel a(fds[0]);
    LineChannel b(fds[1]);
    a.setReadTimeout(40);

    std::string line;
    EXPECT_FALSE(a.readLine(line));
    EXPECT_TRUE(a.timedOut());

    // A pure timeout is not EOF: once the peer speaks, reads work.
    ASSERT_TRUE(b.writeLine("{\"hello\": 1}"));
    EXPECT_TRUE(a.readLine(line));
    EXPECT_EQ(line, "{\"hello\": 1}");
    EXPECT_FALSE(a.timedOut());
}

TEST_F(FaultTest, WriteDeadlineExpiresAgainstAStalledPeer)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    int sndbuf = 4096;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf,
                 sizeof(sndbuf));
    LineChannel writer(fds[0]);
    LineChannel stalled(fds[1]); // never reads
    writer.setWriteTimeout(30);

    const std::string line(64 * 1024, 'x');
    bool failed = false;
    for (int i = 0; i < 256 && !failed; ++i)
        failed = !writer.writeLine(line);
    ASSERT_TRUE(failed) << "socket buffers never filled";
    EXPECT_TRUE(writer.timedOut());
}

TEST_F(FaultTest, OverlongLineIsADeadChannelNotAnAllocationBomb)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread feeder([fd = fds[1]] {
        // Push just past kMaxLine without a newline. Non-blocking
        // sends: once the reader declares the line overlong it stops
        // consuming, and a blocking send would wedge this thread.
        const std::string chunk(64 * 1024, 'a');
        std::size_t sent = 0;
        while (sent <= LineChannel::kMaxLine + chunk.size()) {
            ssize_t n = ::send(fd, chunk.data(), chunk.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n > 0)
                sent += std::size_t(n);
            else if (errno == EAGAIN || errno == EWOULDBLOCK)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            else
                break;
        }
        ::shutdown(fd, SHUT_RDWR);
    });
    LineChannel reader(fds[0]);
    std::string line;
    EXPECT_FALSE(reader.readLine(line));
    EXPECT_FALSE(reader.timedOut());
    feeder.join();
    ::close(fds[1]);
}

TEST_F(FaultTest, ListenRefusesToUnlinkANonSocketFile)
{
    const std::string path = tmpPath("not-a-socket");
    {
        std::ofstream f(path);
        f << "precious data\n";
    }
    EXPECT_THROW(listenUnix(path), std::runtime_error);
    // The file survived, contents intact.
    std::ifstream f(path);
    std::string text;
    std::getline(f, text);
    EXPECT_EQ(text, "precious data");
    ::unlink(path.c_str());

    // A stale *socket* file is replaced as before.
    const std::string sock = tmpPath("stale.sock");
    int fd = listenUnix(sock);
    ASSERT_GE(fd, 0);
    ::close(fd); // socket file remains on disk
    fd = listenUnix(sock);
    EXPECT_GE(fd, 0);
    ::close(fd);
    ::unlink(sock.c_str());
}

TEST_F(FaultTest, JournalRecoversUnfinishedJobsInSubmitOrder)
{
    const std::string dir = freshStateDir("recover");
    const std::string spec =
        "{\"verb\": \"submit\", \"bench\": \"gzip\"}";
    {
        JobJournal j(dir);
        j.submitted(1, "t-one", spec);
        j.submitted(2, "", spec);
        j.started(2);
        j.submitted(3, "t-three", spec);
        j.finished(3, "done");
    } // "crash": no finished record for jobs 1 and 2

    JobJournal j(dir);
    std::vector<RecoveredJob> live = j.recover();
    ASSERT_EQ(live.size(), 2u);
    EXPECT_EQ(live[0].id, 1u);
    EXPECT_EQ(live[0].token, "t-one");
    EXPECT_EQ(live[0].spec, spec) << "spec text survives verbatim";
    EXPECT_FALSE(live[0].started);
    EXPECT_EQ(live[1].id, 2u);
    EXPECT_TRUE(live[1].token.empty());
    EXPECT_TRUE(live[1].started);
    EXPECT_EQ(j.torn(), 0u);
}

TEST_F(FaultTest, JournalToleratesTornAndCorruptLines)
{
    const std::string dir = freshStateDir("torn");
    const std::string spec =
        "{\"verb\": \"submit\", \"bench\": \"gzip\"}";
    {
        JobJournal j(dir);
        j.submitted(1, "tok", spec);
    }
    {
        // A kill -9 mid-append leaves a torn tail; a bad disk leaves
        // garbage. Neither may cost the intact records.
        std::ofstream f(dir + "/jobs.ndjson", std::ios::app);
        f << "{\"rec\": \"finis\n";
        f << "complete garbage, not json\n";
        f << "{\"rec\": \"unknown-kind\", \"job\": 9}\n";
        // Older front daemons journalled chunk dispatches; this one
        // re-dispatches every chunk, so the record is just unknown.
        f << "{\"rec\": \"shard\", \"job\": 1, \"gen\": 0, "
             "\"shard\": 0, \"worker\": \"tcp:127.0.0.1:9\", "
             "\"token\": \"sfo.tok.g0.s0.h1\"}\n";
    }
    JobJournal j(dir);
    std::vector<RecoveredJob> live = j.recover();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0].id, 1u);
    EXPECT_EQ(live[0].spec, spec);
    EXPECT_EQ(j.torn(), 4u);
}

TEST_F(FaultTest, JournalResetRestartsTheLogInANewIdSpace)
{
    const std::string dir = freshStateDir("reset");
    const std::string spec =
        "{\"verb\": \"submit\", \"bench\": \"gzip\"}";
    {
        JobJournal j(dir);
        j.submitted(40, "tok", spec);
        j.submitted(41, "", spec);
    }
    {
        JobJournal j(dir);
        std::vector<RecoveredJob> live = j.recover();
        ASSERT_EQ(live.size(), 2u);
        // The server re-queues under fresh ids, then resets the log.
        live[0].id = 1;
        live[1].id = 2;
        j.reset(live);
    }
    JobJournal j(dir);
    std::vector<RecoveredJob> live = j.recover();
    ASSERT_EQ(live.size(), 2u);
    EXPECT_EQ(live[0].id, 1u);
    EXPECT_EQ(live[0].token, "tok");
    EXPECT_EQ(live[1].id, 2u);
}

TEST_F(FaultTest, JournalCompactionKeepsTheLogProportionalToLiveSet)
{
    const std::string dir = freshStateDir("compact");
    const std::string spec =
        "{\"verb\": \"submit\", \"bench\": \"gzip\"}";
    {
        JobJournal j(dir);
        j.submitted(1, "keep", spec); // stays live throughout
        for (std::uint64_t id = 2; id < 120; ++id) {
            j.submitted(id, "", spec);
            j.finished(id, "done");
        }
    }
    // 118 finished jobs wrote ~236 records; compaction rewrote the
    // log down to the live set (plus the appends since the last
    // compaction pass).
    std::ifstream f(dir + "/jobs.ndjson");
    std::size_t lines = 0;
    std::string line;
    while (std::getline(f, line))
        ++lines;
    EXPECT_LT(lines, 140u);

    JobJournal j(dir);
    std::vector<RecoveredJob> live = j.recover();
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0].token, "keep");
}
