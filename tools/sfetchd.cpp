/**
 * @file
 * sfetchd: the sfetch simulation daemon. Binds a Unix-domain or TCP
 * listener, speaks the line-delimited JSON protocol documented in
 * serve/server.hh, and keeps workloads and decoded arenas resident
 * between requests under --mem-budget-mb.
 *
 * Usage:
 *   sfetchd [--listen unix:PATH|tcp:HOST:PORT] [--workers N]
 *           [--worker HOST:PORT[,HOST:PORT...]]... [--max-jobs N]
 *           [--max-points-per-job N] [--mem-budget-mb N] [--quiet]
 *           [--state-dir DIR] [--idle-timeout MS]
 *           [--write-timeout MS] [--point-timeout MS]
 *           [--max-conns N] [--max-jobs-per-client N]
 *           [--shard-retries N] [--chunk-points N]
 *           [--probe-interval MS] [--probe-timeout MS]
 *
 * Each of the --workers concurrent jobs sweeps its points on its share
 * of the cores, max(1, cores / workers) threads, unless the submit
 * asks for a "jobs" count of its own (clamped to the cores).
 *
 * With one or more --worker addresses the daemon becomes a
 * multi-node *front*: submits are split into --chunk-points chunks
 * pulled by idle workers (work stealing) and the row streams merged
 * back in point order, bit-identical to a single-daemon run; a
 * worker lost mid-sweep, or one that cannot be reached on the one
 * connect attempt each dispatch makes (bounded by --probe-timeout),
 * only costs a re-dispatch of its undelivered points (see
 * serve/server.hh). The fleet is also dynamic: the
 * `register`/`deregister` verbs (sfetchctl register ADDR) grow and
 * shrink it at runtime, and a background prober drives per-worker
 * alive/suspect/dead/recovering health on --probe-interval.
 *
 * Lifecycle: SIGTERM (or SIGINT, or a `shutdown` request) drains —
 * queued and running jobs finish and their streams flush — then the
 * daemon exits 0. SIGUSR1 dumps the stats JSON to stderr at any time:
 * the same reply as the `stats` verb, rendered from the daemon's
 * metrics registry (util/metrics.hh), where each counter and gauge is
 * declared once.
 * With --state-dir, a crash (kill -9, OOM) loses nothing: unfinished
 * jobs are journalled and re-queued on the next start.
 *
 * A malformed SFETCH_FAULT (util/fault_inject.hh) is refused before
 * the daemon binds: one `sfetchd: <error>` line, exit 1.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "serve/server.hh"
#include "sim/cli.hh"
#include "util/fault_inject.hh"

using namespace sfetch;

int
main(int argc, char **argv)
{
#ifdef __GLIBC__
    // glibc raises its mmap threshold to the size of each large
    // mmapped chunk that is freed (up to 32 MiB). From then on arenas,
    // oracle windows and workload images come from the malloc heaps,
    // one per sweep thread, where freed memory mostly stays resident.
    // Setting the threshold fixes it, so those buffers stay mmapped
    // and freeing one returns its pages to the OS: running more
    // simulations at once does not grow the daemon's RSS.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
    ServeConfig cfg;

    CliParser cli("sfetchd",
                  "serve simulations over a Unix or TCP socket with "
                  "line-delimited JSON");
    cli.addOption("--listen", "ADDR",
                  "listen address: unix:PATH or tcp:HOST:PORT "
                  "(default unix:/tmp/sfetchd.sock)",
                  [&](const std::string &v) { cfg.socketPath = v; });
    cli.addOption("--worker", "ADDR[,ADDR...]",
                  "worker daemon address(es); any --worker makes this "
                  "daemon a multi-node front that shards submits "
                  "across the workers (repeatable; bare HOST:PORT "
                  "means tcp:HOST:PORT)",
                  [&](const std::string &v) {
                      for (std::string &addr :
                           CliParser::parseNameList(v))
                          cfg.workerAddrs.push_back(std::move(addr));
                  });
    cli.addOption("--shard-retries", "N",
                  "front mode: stream losses one chunk may survive "
                  "before the job fails structurally (default 2)",
                  [&](const std::string &v) {
                      cfg.shardRetries = static_cast<unsigned>(
                          CliParser::parseU64(v));
                  });
    cli.addOption("--chunk-points", "N",
                  "front mode: points per work-stealing chunk "
                  "(default 4; smaller steals finer)",
                  [&](const std::string &v) {
                      cfg.chunkPoints = static_cast<std::size_t>(
                          CliParser::parseU64(v));
                  });
    cli.addOption("--probe-interval", "MS",
                  "front mode: worker heartbeat period (default "
                  "1000, 0 = no background prober)",
                  [&](const std::string &v) {
                      cfg.probeIntervalMs = static_cast<int>(
                          CliParser::parseU64(v));
                  });
    cli.addOption("--probe-timeout", "MS",
                  "front mode: connect+reply deadline per heartbeat "
                  "probe, and connect deadline per chunk dispatch "
                  "(default 1000)",
                  [&](const std::string &v) {
                      cfg.probeTimeoutMs = static_cast<int>(
                          CliParser::parseU64(v));
                  });
    cli.addOption("--workers", "N",
                  "concurrent jobs (default 1, 0 = all cores); each "
                  "job's sweep runs on cores / N threads unless its "
                  "submit sets \"jobs\"",
                  [&](const std::string &v) {
                      cfg.workers = CliParser::parseUnsignedList(v).at(0);
                  });
    cli.addOption("--max-jobs", "N",
                  "admission cap on queued+running jobs (default 8)",
                  [&](const std::string &v) {
                      cfg.maxJobs = CliParser::parseUnsignedList(v).at(0);
                  });
    cli.addOption("--max-points-per-job", "N",
                  "admission cap on sweep points per submit "
                  "(default 256)",
                  [&](const std::string &v) {
                      cfg.maxPointsPerJob =
                          CliParser::parseUnsignedList(v).at(0);
                  });
    cli.addOption("--mem-budget-mb", "N",
                  "budget for cached workload arenas in MiB "
                  "(default 256)",
                  [&](const std::string &v) {
                      cfg.memBudgetBytes =
                          std::size_t(
                              CliParser::parseUnsignedList(v).at(0))
                          << 20;
                  });
    cli.addFlag("--quiet", "suppress per-event logging",
                [&] { cfg.quiet = true; });
    cli.addOption("--state-dir", "DIR",
                  "journal jobs here and re-queue unfinished ones on "
                  "restart (default: no persistence)",
                  [&](const std::string &v) { cfg.stateDir = v; });
    cli.addOption("--idle-timeout", "MS",
                  "close connections idle between requests for this "
                  "long (default 0 = never)",
                  [&](const std::string &v) {
                      cfg.idleTimeoutMs = static_cast<int>(
                          CliParser::parseUnsignedList(v).at(0));
                  });
    cli.addOption("--write-timeout", "MS",
                  "give up on a consumer that accepts no line for "
                  "this long (default 0 = never)",
                  [&](const std::string &v) {
                      cfg.writeTimeoutMs = static_cast<int>(
                          CliParser::parseUnsignedList(v).at(0));
                  });
    cli.addOption("--point-timeout", "MS",
                  "watchdog: mark a job stuck and free its slot when "
                  "one sweep point exceeds this (default 0 = off)",
                  [&](const std::string &v) {
                      cfg.pointTimeoutMs = static_cast<int>(
                          CliParser::parseUnsignedList(v).at(0));
                  });
    cli.addOption("--max-conns", "N",
                  "concurrent connection cap, excess get a 'busy' "
                  "error (default 64, 0 = unlimited)",
                  [&](const std::string &v) {
                      cfg.maxConns =
                          CliParser::parseUnsignedList(v).at(0);
                  });
    cli.addOption("--max-jobs-per-client", "N",
                  "active-job quota per client process, excess get "
                  "'over_quota' (default 0 = unlimited)",
                  [&](const std::string &v) {
                      cfg.maxJobsPerClient =
                          CliParser::parseUnsignedList(v).at(0);
                  });
    cli.parseOrExit(argc, argv);

    // Signals are handled synchronously on a dedicated thread: block
    // them everywhere first (threads inherit the mask), then sigwait.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGTERM);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    Server server(cfg);
    try {
        fault::applyEnv();
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sfetchd: %s\n", e.what());
        return 1;
    }

    // The signal thread never exits on its own — only when main sets
    // `quit` and pokes it — so the final pthread_kill always targets
    // a live thread.
    std::atomic<bool> quit{false};
    std::thread sig_thread([&] {
        while (true) {
            int sig = 0;
            if (sigwait(&sigs, &sig) != 0)
                continue;
            if (quit.load())
                return;
            if (sig == SIGUSR1)
                std::fprintf(stderr, "%s\n",
                             server.statsJson().c_str());
            else // SIGTERM/SIGINT: drain and exit.
                server.requestShutdown(true);
        }
    });

    const bool drain = server.waitShutdown();
    server.stop(drain);
    quit = true;
    pthread_kill(sig_thread.native_handle(), SIGUSR1);
    sig_thread.join();
    return 0;
}
