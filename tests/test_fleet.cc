/**
 * @file
 * FleetManager unit tests: membership (seed/register/deregister),
 * the probe-driven alive -> suspect -> dead -> recovering state
 * machine (stepped deterministically with explicit clocks and
 * fault-injected connect failures), dead-worker re-probe backoff,
 * dispatch evidence feeding the same machine, and the enriched
 * health payload captured from a live daemon.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include "serve/fleet.hh"
#include "serve/journal.hh"
#include "serve/server.hh"
#include "util/fault_inject.hh"
#include "util/metrics.hh"

using namespace sfetch;

namespace
{

FleetConfig
quietConfig()
{
    FleetConfig cfg;
    cfg.probeIntervalMs = 1000;
    cfg.probeTimeoutMs = 200;
    cfg.quiet = true;
    return cfg;
}

ServeConfig
serverConfig()
{
    ServeConfig cfg;
    cfg.socketPath = "tcp:127.0.0.1:0";
    cfg.workers = 1;
    cfg.memBudgetBytes = std::size_t(64) << 20;
    cfg.quiet = true;
    cfg.probeIntervalMs = 0; // no prober noise from the server's own
    return cfg;              // (empty) fleet
}

WorkerSnapshot
snapshotOf(const FleetManager &fleet, const std::string &addr)
{
    for (const WorkerSnapshot &s : fleet.snapshot())
        if (s.addr == addr)
            return s;
    ADD_FAILURE() << "no snapshot for " << addr;
    return {};
}

} // namespace

TEST(Fleet, SeedRegisterDeregisterMembership)
{
    MetricsRegistry metrics;
    FleetManager fleet(quietConfig(), metrics);
    fleet.seed({"tcp:127.0.0.1:9001", "unix:/tmp/sf-a.sock"});
    EXPECT_EQ(fleet.size(), 2u);
    EXPECT_TRUE(snapshotOf(fleet, "tcp:127.0.0.1:9001").staticSeed);

    EXPECT_TRUE(fleet.registerWorker("tcp:127.0.0.1:9002"));
    EXPECT_FALSE(fleet.registerWorker("tcp:127.0.0.1:9002"))
        << "re-registration is idempotent, not a second member";
    EXPECT_EQ(fleet.size(), 3u);
    EXPECT_FALSE(snapshotOf(fleet, "tcp:127.0.0.1:9002").staticSeed);

    EXPECT_THROW(fleet.registerWorker("tcp:127.0.0.1:notaport"),
                 std::invalid_argument);
    EXPECT_EQ(fleet.size(), 3u);

    EXPECT_TRUE(fleet.deregisterWorker("tcp:127.0.0.1:9001"));
    EXPECT_FALSE(fleet.deregisterWorker("tcp:127.0.0.1:9001"));
    EXPECT_EQ(fleet.size(), 2u);

    // Members start alive; unknown addresses are never usable.
    EXPECT_TRUE(fleet.usable("tcp:127.0.0.1:9002"));
    EXPECT_FALSE(fleet.usable("tcp:127.0.0.1:9001"));
    EXPECT_TRUE(fleet.anyUsable({"tcp:127.0.0.1:9002"}));
    EXPECT_FALSE(fleet.anyUsable({"tcp:127.0.0.1:9001"}));
}

TEST(Fleet, ProbeFailuresMarchAliveSuspectDeadWithBackoff)
{
    // Nothing listens on port 1: every probe fails fast with
    // ECONNREFUSED, stepping the machine one failure per call.
    const std::string addr = "tcp:127.0.0.1:1";
    MetricsRegistry metrics;
    FleetManager fleet(quietConfig(), metrics);
    fleet.registerWorker(addr);
    ASSERT_EQ(snapshotOf(fleet, addr).state, WorkerState::Alive);

    EXPECT_EQ(fleet.probeAll(0), 1u);
    EXPECT_EQ(snapshotOf(fleet, addr).state, WorkerState::Suspect);
    EXPECT_TRUE(fleet.usable(addr)) << "suspect still gets work";

    EXPECT_EQ(fleet.probeAll(1000), 1u);
    EXPECT_EQ(snapshotOf(fleet, addr).state, WorkerState::Suspect);

    EXPECT_EQ(fleet.probeAll(2000), 1u);
    EXPECT_EQ(snapshotOf(fleet, addr).state, WorkerState::Dead);
    EXPECT_FALSE(fleet.usable(addr));

    WorkerSnapshot s = snapshotOf(fleet, addr);
    EXPECT_EQ(s.probes, 3u);
    EXPECT_EQ(s.probeFailures, 3u);
    EXPECT_EQ(s.consecutiveFailures, 3u);
    EXPECT_EQ(s.deaths, 1u);
    EXPECT_EQ(s.transitions, 2u); // alive->suspect, suspect->dead

    // Dead re-probe backs off: due at 3000, then the failed re-probe
    // doubles the interval (due 5000), doubling again to 7000.
    EXPECT_EQ(fleet.probeAll(2500), 0u);
    EXPECT_EQ(fleet.probeAll(3000), 1u);
    EXPECT_EQ(fleet.probeAll(4999), 0u);
    EXPECT_EQ(fleet.probeAll(5000), 1u);
    EXPECT_EQ(fleet.probeAll(8999), 0u);
    EXPECT_EQ(fleet.probeAll(9000), 1u);

    EXPECT_EQ(metrics.value("workers_registered"), 1u);
    EXPECT_EQ(metrics.value("workers_dead"), 1u);
    EXPECT_EQ(metrics.value("workers_alive"), 0u);
    EXPECT_EQ(metrics.value("probes_sent"), 6u);
    EXPECT_EQ(metrics.value("probe_failures"), 6u);
    EXPECT_EQ(metrics.value("worker_deaths"), 1u);
}

TEST(Fleet, DeadWorkerRecoversThroughRecoveringToAlive)
{
    if (!fault::compiledIn())
        GTEST_SKIP() << "fault injection not compiled in";

    // A real daemon answers probes; injected connect failures stand
    // in for the network eating them.
    Server server(serverConfig());
    server.start();
    const std::string addr = server.listenAddress();

    MetricsRegistry metrics;
    FleetManager fleet(quietConfig(), metrics);
    fleet.registerWorker(addr);

    fault::arm("socket.connect", 0, 3);
    fleet.probeAll(0);
    fleet.probeAll(1000);
    fleet.probeAll(2000);
    ASSERT_EQ(snapshotOf(fleet, addr).state, WorkerState::Dead);

    // Faults exhausted: the next due probe succeeds -> recovering
    // (usable again), and a second success restores alive.
    EXPECT_EQ(fleet.probeAll(3000), 1u);
    EXPECT_EQ(snapshotOf(fleet, addr).state, WorkerState::Recovering);
    EXPECT_TRUE(fleet.usable(addr));
    EXPECT_EQ(fleet.probeAll(4000), 1u);
    WorkerSnapshot s = snapshotOf(fleet, addr);
    EXPECT_EQ(s.state, WorkerState::Alive);
    EXPECT_EQ(s.consecutiveFailures, 0u);
    EXPECT_GE(s.ewmaLatencyMs, 0.0); // ms granularity: 0 on loopback

    // The successful probe captured the enriched health payload.
    ASSERT_TRUE(s.health.has_value());
    EXPECT_EQ(s.health->queueDepth, 0u);
    EXPECT_EQ(s.health->jobsRunning, 0u);
    EXPECT_FALSE(s.health->journalDegraded);

    // Flapping: one failure while recovering drops straight back to
    // dead — no second chance at suspect.
    fault::arm("socket.connect", 0, 4);
    fleet.probeAll(5000);
    fleet.probeAll(6000);
    fleet.probeAll(7000);
    ASSERT_EQ(snapshotOf(fleet, addr).state, WorkerState::Dead);
    EXPECT_EQ(fleet.probeAll(8000), 1u); // dead re-probe fails...
    EXPECT_EQ(fleet.probeAll(9000), 0u); // ...so backoff doubled
    fault::disarmAll();
    EXPECT_EQ(fleet.probeAll(10000), 1u); // success -> recovering
    ASSERT_EQ(snapshotOf(fleet, addr).state, WorkerState::Recovering);
    fault::arm("socket.connect", 0, 1);
    EXPECT_EQ(fleet.probeAll(11000), 1u);
    EXPECT_EQ(snapshotOf(fleet, addr).state, WorkerState::Dead)
        << "a failure while recovering is flapping: back to dead";
    fault::disarmAll();

    EXPECT_GE(metrics.value("worker_deaths"), 3u);
    server.stop(false);
}

TEST(Fleet, DispatchEvidenceDrivesTheSameStateMachine)
{
    const std::string addr = "tcp:127.0.0.1:9009";
    MetricsRegistry metrics;
    FleetManager fleet(quietConfig(), metrics);
    fleet.registerWorker(addr);

    fleet.reportDispatchFailure(addr);
    EXPECT_EQ(snapshotOf(fleet, addr).state, WorkerState::Suspect);
    fleet.reportDispatchSuccess(addr);
    EXPECT_EQ(snapshotOf(fleet, addr).state, WorkerState::Alive);

    fleet.reportDispatchFailure(addr);
    fleet.reportDispatchFailure(addr);
    fleet.reportDispatchFailure(addr);
    WorkerSnapshot s = snapshotOf(fleet, addr);
    EXPECT_EQ(s.state, WorkerState::Dead);
    EXPECT_EQ(s.dispatchFailures, 4u);
    EXPECT_EQ(s.dispatchSuccesses, 1u);
    EXPECT_FALSE(fleet.usable(addr));

    // A probe success while dead re-admits it (recovering), exactly
    // as if the prober had found it: the two evidence streams
    // converge on one view.
    fleet.reportDispatchSuccess(addr);
    EXPECT_EQ(snapshotOf(fleet, addr).state, WorkerState::Recovering);
    EXPECT_TRUE(fleet.usable(addr));

    // Reports against unknown workers are ignored, not a crash.
    fleet.reportDispatchFailure("tcp:127.0.0.1:9999");
    fleet.reportDispatchSuccess("tcp:127.0.0.1:9999");
    EXPECT_EQ(fleet.size(), 1u);
}

TEST(Fleet, ReRegistrationResetsADeadWorker)
{
    const std::string addr = "tcp:127.0.0.1:9010";
    MetricsRegistry metrics;
    FleetManager fleet(quietConfig(), metrics);
    fleet.registerWorker(addr);
    fleet.reportDispatchFailure(addr);
    fleet.reportDispatchFailure(addr);
    fleet.reportDispatchFailure(addr);
    ASSERT_EQ(snapshotOf(fleet, addr).state, WorkerState::Dead);

    // The worker announcing itself again is a liveness claim: back
    // to alive, suspicion cleared, probe due immediately.
    EXPECT_FALSE(fleet.registerWorker(addr));
    WorkerSnapshot s = snapshotOf(fleet, addr);
    EXPECT_EQ(s.state, WorkerState::Alive);
    EXPECT_EQ(s.consecutiveFailures, 0u);
    EXPECT_TRUE(fleet.usable(addr));
}

TEST(Fleet, MembershipSurvivesARestartViaTheJournal)
{
    const std::string dir = "/tmp/sfetch-test-" +
                            std::to_string(::getpid()) +
                            "-fleet-journal";
    ::mkdir(dir.c_str(), 0755);
    ::unlink((dir + "/jobs.ndjson").c_str());
    ::unlink((dir + "/jobs.ndjson.tmp").c_str());

    // Journal level: the final op per address wins, in first-seen
    // order — a register followed by a deregister replays as a
    // deregistration (masking a static seed on the next start).
    {
        JobJournal journal(dir);
        journal.recover();
        journal.worker("tcp:127.0.0.1:9021", true);
        journal.worker("unix:/tmp/sf-w.sock", true);
        journal.worker("unix:/tmp/sf-w.sock", false);
    }
    {
        JobJournal journal(dir);
        journal.recover();
        const auto ops = journal.recoveredWorkers();
        ASSERT_EQ(ops.size(), 2u);
        EXPECT_EQ(ops[0].first, "tcp:127.0.0.1:9021");
        EXPECT_TRUE(ops[0].second);
        EXPECT_EQ(ops[1].first, "unix:/tmp/sf-w.sock");
        EXPECT_FALSE(ops[1].second);
    }

    // Server level: a front restarted on the same state dir rebuilds
    // its fleet from the journal — static seeds plus journalled
    // registrations, minus journalled deregistrations.
    ServeConfig cfg = serverConfig();
    cfg.stateDir = dir;
    cfg.workerAddrs = {"unix:/tmp/sf-w.sock"}; // masked by the log
    Server revived(cfg);
    revived.start();
    FleetManager &fleet = revived.fleet();
    EXPECT_EQ(fleet.size(), 1u);
    EXPECT_TRUE(fleet.usable("tcp:127.0.0.1:9021"));
    EXPECT_FALSE(fleet.usable("unix:/tmp/sf-w.sock"))
        << "a journalled deregister must mask the static seed";
    revived.stop(false);
}

TEST(Fleet, WorkerStateNamesAreCanonical)
{
    EXPECT_STREQ(workerStateName(WorkerState::Alive), "alive");
    EXPECT_STREQ(workerStateName(WorkerState::Suspect), "suspect");
    EXPECT_STREQ(workerStateName(WorkerState::Dead), "dead");
    EXPECT_STREQ(workerStateName(WorkerState::Recovering),
                 "recovering");
}
