/**
 * @file
 * sfetchd's engine room: a resident simulation service wrapping
 * SweepDriver behind a stream socket (Unix-domain or TCP — see
 * serve/socket_io's address grammar) speaking line-delimited JSON.
 * One-shot bench binaries rebuild workloads and arenas from scratch
 * on every invocation; the daemon amortizes them across requests
 * under an explicit memory budget.
 *
 * Protocol: one JSON object per line, both directions. The verbs,
 * their typed fields and the refusals each may return are declared
 * once, in ProtocolSchema (serve/protocol.hh); handleRequest() checks
 * every request against it before any handler runs. One exchange:
 *
 *   {"verb":"submit","bench":"gzip,loops","arch":"stream,ev8",
 *    "insts":50000,"warmup":10000,"widths":[4,8],"jobs":2}
 *     -> {"ok":true,"job":1,"points":8,"jobs":2,"arena":true}
 *        ("jobs": the sweep threads the job runs on — omitted or 0
 *        means the daemon's share, max(1, cores / workers), and any
 *        other value is clamped to [1, cores]; "arena": the
 *        governor's plan for the job)
 *     -> one framed row per finished sweep point, as it finishes:
 *        {"job":1,"point":0,"of":8,"arena":true,"row":{...}}
 *        where "row" is exactly ResultSet's per-row JSON (rowJson)
 *        and "arena" says whether this point replayed a shared arena
 *     -> a summary terminator:
 *        {"job":1,"done":true,"state":"done","points_done":8,
 *         "of":8,"arena":true,"wall_seconds":...}
 *        ("arena": every point ran and replayed a shared arena)
 *
 * Refusals are structured and non-fatal to the connection:
 *   {"ok":false,"reason":"bad_spec","error":"<human readable>"}
 *
 * Admission control: at most maxJobs jobs queued+running (reject
 * "queue_full"), at most maxPointsPerJob points per submit (reject
 * "max_points_per_job"), at most maxJobsPerClient active jobs per
 * client identity (SO_PEERCRED; reject "over_quota"), at most
 * maxConns concurrent connections (reject "busy"). Memory governor:
 * each submit's arena cost is pre-estimated before any decode
 * (estimatedArenaBytes(), sim/driver.hh); a job whose estimate cannot
 * fit even an empty cache is rejected "over_budget" when it demands
 * arenas ("arena":"require"), and otherwise the governor first sheds
 * cached workloads' arenas (then whole workloads) LRU-first
 * (WorkloadCache::evictToBudget()), then falls back to each point
 * decoding its own window ("arena":false in the framing) — the budget
 * is never exceeded to satisfy a decode. Rows are bit-identical
 * either way.
 *
 * Fault tolerance: with a --state-dir, every submit/start/finish is
 * journalled (serve/journal.hh) and unfinished jobs are re-queued on
 * restart; a client that tagged its submit with a "token" can
 * resubmit the same token after a daemon crash and either *attach*
 * to the recovered job's stream (a recovered job with a token buffers
 * every row for exactly this purpose) or, if the job already streamed
 * to someone, get a one-line duplicate summary. Connections carry
 * idle/write deadlines ("timeout"), and a watchdog marks jobs whose
 * current point exceeds --point-timeout as "stuck", freeing their
 * admission slot.
 *
 * Job lifetime: a job is held whole in jobs_ while it is queued or
 * running, while its stream drains, and, when recovered with a token,
 * until that token attaches. Once its worker is done and no consumer
 * will stream it again (its stream ended or broke), it retires: all
 * the daemon keeps is its {state, points_done, of} summary under its
 * id, from which `status`, `cancel` and a token duplicate answer
 * exactly as they did for the live job. Rows stop being buffered the
 * moment the consumer is gone: a dropped stream's remaining rows are
 * discarded, and a recovered job without a token (no one can attach)
 * buffers none. So a daemon's memory does not grow with the jobs it
 * has served; the `jobs_live` gauge counts the jobs held whole.
 *
 * Ordering: rows stream in completion order, and the framing always
 * carries the point index. By default a job's sweep runs on its share
 * of the cores, so rows may arrive out of point order; only a "jobs":1
 * submit streams them in point order.
 *
 * Multi-node fan-out: a daemon whose worker *fleet* is non-empty —
 * seeded from ServeConfig::workerAddrs / `sfetchd --worker`, grown
 * and shrunk at runtime by the `register`/`deregister` verbs
 * (journalled as `worker` records, so a restarted front recovers
 * its fleet) — is a *front*: it accepts the same protocol, but
 * instead of simulating, it fans each job's points out across the
 * workers using the submit protocol's explicit `"points"` form —
 *
 *   {"verb":"submit","points":[{"bench":"gzip","spec":"stream",
 *    "width":8,"layout":"opt","insts":50000,"warmup":10000},...]}
 *
 * — then merges the workers' row streams back into one stream in
 * global point order, re-framed under the front's job id. The front
 * submits each shard with "jobs":1: the worker daemons may share one
 * host, so their own core shares would oversubscribe it, and a
 * single-threaded shard streams its rows in shard order. Rows are raw
 * JSON passed through verbatim, so the merged stream is bit-identical
 * to a single-daemon run of the same submit.
 *
 * Dispatch is *work-stealing*: the job's points are cut into
 * contiguous chunks of ServeConfig::chunkPoints, and one persistent
 * pump thread per fleet member pulls the next chunk whenever its
 * worker is idle — fast workers naturally steal load from slow
 * ones, and there is no generation barrier to stall behind. A chunk
 * whose worker dies or stalls mid-stream returns its undelivered
 * points to the front of the queue immediately (attempt count + 1,
 * structural failure once a chunk's stream breaks more than
 * shardRetries times); a dispatch the worker never acks (its one
 * connect attempt, bounded by probeTimeoutMs, fails, or it refuses
 * the submit: queue_full, draining, busy) re-queues without burning
 * an attempt and instead feeds the fleet health state machine
 * (serve/fleet.hh) — only `dead` workers are excluded from pulls,
 * and the job fails structurally when every member is dead with
 * points still undelivered. That requeue is a chunk's only failure
 * path: shard submits carry no token and nothing about them is
 * journalled, so a restarted front re-runs each recovered job like
 * any other, and its rows are bit-identical because simulation is
 * deterministic.
 *
 * Fleet health: a background prober drives each member through
 * alive -> suspect -> dead -> recovering from `health`-verb probes
 * (--probe-interval / --probe-timeout) and dispatch evidence; the
 * `workers` verb and the stats output expose per-worker state,
 * probe/dispatch counters, and EWMA probe latency.
 *
 * Metrics: each `stats`/`health` key is declared once, in the
 * daemon's MetricsRegistry (util/metrics.hh), by its owner — job,
 * row, shard and connection counters with their members below; job
 * depths, connections, cache, arena bytes and decodes, budget,
 * journal and uptime gauges in the Server constructor; fleet size,
 * per-state counts, deaths and probe totals in FleetManager's.
 */

#ifndef SFETCH_SERVE_SERVER_HH
#define SFETCH_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/driver.hh"
#include "util/metrics.hh"

namespace sfetch
{

class LineChannel;
class JsonObjectWriter;
class JobJournal;
class FleetManager;
class Request;

/** Daemon knobs (the sfetchd command line maps 1:1 onto these). */
struct ServeConfig
{
    /**
     * Listen address: `unix:PATH`, `tcp:HOST:PORT` (port 0 binds an
     * ephemeral port — Server::listenAddress() reports the real
     * one), or a bare Unix socket path.
     */
    std::string socketPath = "/tmp/sfetchd.sock";
    /**
     * Worker-daemon addresses (`tcp:HOST:PORT` / `unix:PATH`) that
     * seed the fleet. When the fleet is non-empty (static seeds
     * and/or runtime `register` verbs) this daemon is a multi-node
     * *front*: every submitted sweep is split across the workers and
     * the row streams merged back in point order, bit-identical to a
     * local run.
     */
    std::vector<std::string> workerAddrs;
    /** Extra stream-loss re-dispatches per chunk: a chunk whose
     * worker connection broke mid-stream more than this many times
     * fails the job structurally. */
    unsigned shardRetries = 2;
    /** Front mode: sweep points per work-stealing chunk. Small
     * chunks spread load and shrink what a dying worker can lose;
     * large chunks amortize per-dispatch overhead. */
    std::size_t chunkPoints = 4;
    /** Fleet heartbeat period per worker, ms; <=0 disables the
     * background prober. */
    int probeIntervalMs = 1000;
    /** Connect + reply deadline for one heartbeat probe, ms; also
     * the deadline of a chunk dispatch's one connect attempt. */
    int probeTimeoutMs = 1000;
    /** Worker threads = jobs simulating concurrently. 0 picks
     * hardware_concurrency(). Each job's sweep defaults to
     * max(1, hardware_concurrency() / workers) threads. */
    unsigned workers = 1;
    /** Admission cap on jobs queued + running. */
    std::size_t maxJobs = 8;
    /** Admission cap on sweep points per submit. */
    std::size_t maxPointsPerJob = 256;
    /** Memory budget governing cached/decoded arena bytes. */
    std::size_t memBudgetBytes = std::size_t(256) << 20;
    /** Suppress per-event logging to stderr. */
    bool quiet = false;

    /** Journal directory; "" disables persistence. */
    std::string stateDir;
    /** Per-request read deadline on connections, ms; 0 = none. */
    int idleTimeoutMs = 0;
    /** Per-line write deadline towards consumers, ms; 0 = none. */
    int writeTimeoutMs = 0;
    /** Watchdog: a running job whose current point exceeds this is
     * marked stuck and its admission slot freed; 0 = no watchdog. */
    int pointTimeoutMs = 0;
    /** Concurrent connection cap; 0 = unlimited. */
    std::size_t maxConns = 64;
    /** Active (queued+running) jobs per client; 0 = unlimited. */
    std::size_t maxJobsPerClient = 0;
};

class Server
{
  public:
    explicit Server(ServeConfig cfg);

    /** stop(drain=false) if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket, replay the journal (re-queueing any jobs a
     * previous daemon left unfinished), and spawn the accept loop
     * and worker pool. Throws std::runtime_error when the socket or
     * the state dir cannot be set up. Returns with the daemon ready
     * to accept connections.
     */
    void start();

    /**
     * Shut down: stop admitting, then either finish every queued and
     * running job first (@p drain true — the SIGTERM path) or cancel
     * them (@p drain false), close all connections after their
     * streams flush, join every thread, and remove the socket file.
     * Idempotent.
     */
    void stop(bool drain);

    bool running() const { return running_; }

    /**
     * Ask the owner loop to shut down (the `shutdown` verb and the
     * signal thread both land here); waitShutdown() wakes.
     */
    void requestShutdown(bool drain);

    /** Block until requestShutdown(); returns its drain flag. */
    bool waitShutdown();

    const ServeConfig &config() const { return cfg_; }

    /**
     * The address the daemon actually listens on, in canonical
     * grammar form ("unix:PATH" / "tcp:HOST:PORT"). Differs from the
     * configured socketPath when that requested TCP port 0: the
     * kernel-assigned port is substituted. Valid after start().
     */
    const std::string &listenAddress() const { return boundAddress_; }

    /** Every counter and gauge the daemon reports, by name. */
    const MetricsRegistry &metrics() const { return metrics_; }

    /**
     * "ok", @p scope's metrics, then the fleet's "workers" array: the
     * `stats` verb's reply (also dumped on SIGUSR1), or with kWorkers
     * the `workers` verb's.
     */
    std::string statsJson(unsigned scope = MetricsRegistry::kStats) const;

    /** The worker fleet (membership + health); empty on a plain
     * worker daemon. */
    FleetManager &fleet() { return *fleet_; }

  private:
    enum class JobState
    {
        Queued,
        Running,
        Done,
        Cancelled,
        Failed,
        Stuck
    };

    struct Job;

    /** What `status`, `cancel` and a token duplicate report of a job:
     * all that is kept of it once it retires. */
    struct JobSummary
    {
        JobState state = JobState::Queued;
        std::uint64_t pointsDone = 0;
        std::uint64_t of = 0;
    };

    void acceptLoop();
    void workerLoop();
    void watchdogLoop();
    void serveConnection(const std::shared_ptr<LineChannel> &ch);
    /** Join connection threads whose serveConnection has returned. */
    void reapConnThreads();

    /** Dispatch one request line; submit streams before returning. */
    void handleRequest(const std::string &line, LineChannel &ch);
    void handleSubmit(const Request &req, const std::string &line,
                      LineChannel &ch);
    /** `status`, or with @p cancel `cancel`. */
    std::string handleJobVerb(const Request &req, bool cancel);
    /** `register` / `deregister`: mutate the fleet (journalled). */
    std::string handleWorkerMembership(const Request &req, bool add);

    /** Build an un-admitted Job from a checked submit; throws on a
     * bad workload or engine spec (shared by live submits and journal
     * recovery). */
    std::shared_ptr<Job> makeJob(const Request &req);
    /** Replay the journal into the queue; returns re-queued count. */
    std::size_t recoverJobs();
    /** Drain @p job's out deque to @p ch until closed; false when
     * the consumer vanished or timed out mid-stream. */
    bool streamJob(const std::shared_ptr<Job> &job, LineChannel &ch);

    void runJob(const std::shared_ptr<Job> &job);
    /** Multi-node front: fan the job's points out across the fleet
     * via a work-stealing chunk queue, merging the row streams in
     * global point order; a lost chunk's undelivered points re-queue
     * immediately. */
    void runJobSharded(const std::shared_ptr<Job> &job);
    /** Governor: evict/reserve/fallback; true = share arenas. */
    bool decideArena(const std::shared_ptr<Job> &job);
    /** Return a decideArena() reservation to the budget pool. */
    void releaseReservation(const std::shared_ptr<Job> &job);
    /** Queue @p line for @p job's consumer; dropped once none will
     * read it. */
    void pushLine(const std::shared_ptr<Job> &job, std::string line);
    /** The worker (@p worker) or the consumer is done with @p job;
     * the second to let go retires it from jobs_ to its summary. */
    void releaseJob(const std::shared_ptr<Job> &job, bool worker);
    /** Finalize once (first caller wins — worker vs watchdog): set
     * the terminal state, counters, journal record, summary line. */
    void finishJob(const std::shared_ptr<Job> &job, JobState state,
                   const std::string &error, double wall_seconds,
                   bool used_arena);

    static JobSummary summaryOf(const Job &job);
    /** @p id's summary, and the job while it is live (null once
     * retired); throws unknown_job for an id never issued. Call with
     * mu_ held. */
    std::shared_ptr<Job> lookupJob(std::uint64_t id,
                                   JobSummary &summary) const;
    /** The summary's "state", "points_done" and "of" fields. */
    static JsonObjectWriter &writeSummary(JsonObjectWriter &w,
                                          const JobSummary &summary);
    /** Jobs currently in @p state (a gauge's read). */
    std::uint64_t countJobs(JobState state) const;
    void log(const std::string &msg) const;

    ServeConfig cfg_;
    /** Declared before everything that registers into it. */
    MetricsRegistry metrics_;
    using Counter = MetricsRegistry::Counter;
    Counter &jobsSubmitted_ = metrics_.counter("jobs_submitted");
    Counter &jobsServed_ = metrics_.counter("jobs_served"); //!< done
    Counter &jobsRejected_ = metrics_.counter("jobs_rejected");
    Counter &jobsCancelled_ = metrics_.counter("jobs_cancelled");
    Counter &jobsFailed_ = metrics_.counter("jobs_failed");
    Counter &jobsStuck_ = metrics_.counter("jobs_stuck"); //!< watchdog
    Counter &jobsRecovered_ = metrics_.counter("jobs_recovered");
    Counter &rowsStreamed_ = metrics_.counter("rows_streamed");
    Counter &arenaFallbacks_ = metrics_.counter("arena_fallbacks");
    Counter &shardsDispatched_ = metrics_.counter("shards_dispatched");
    Counter &shardRetries_ = metrics_.counter("shard_retries");
    Counter &pointsRedispatched_ =
        metrics_.counter("points_redispatched");
    Counter &connsRejected_ = metrics_.counter("conns_rejected");
    Counter &connTimeouts_ = metrics_.counter("conn_timeouts");

    unsigned cores_ = 1;      //!< hardware_concurrency(), at least 1
    unsigned sweepShare_ = 1; //!< default sweep threads per job
    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> stopping_{false};

    int listenFd_ = -1;
    std::string boundAddress_; //!< canonical, set by start()
    std::thread acceptThread_;
    std::thread watchdogThread_;
    std::vector<std::thread> workers_;

    std::unique_ptr<JobJournal> journal_;
    std::unique_ptr<FleetManager> fleet_;
    std::int64_t startMs_ = 0; //!< start() time, for uptime_seconds

    mutable std::mutex mu_; //!< jobs_, retired_, queue_, tokens_, nextJobId_
    std::condition_variable queueCv_;
    std::deque<std::shared_ptr<Job>> queue_;
    /** Live jobs: queued, running, still streaming, or recovered and
     * waiting for their token to attach. */
    std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
    /** Retired jobs' summaries, by id - 1: every issued id is in
     * jobs_ or here. */
    std::vector<JobSummary> retired_;
    std::map<std::string, std::uint64_t> tokens_; //!< token -> job id
    std::uint64_t nextJobId_ = 1;

    mutable std::mutex connMu_; //!< conns_, connThreads_, done ids
    std::condition_variable connCv_; //!< a connection retired
    std::map<std::uint64_t, std::shared_ptr<LineChannel>> conns_;
    std::map<std::uint64_t, std::thread> connThreads_;
    std::vector<std::uint64_t> doneConnIds_;
    std::uint64_t nextConnId_ = 1;

    std::mutex govMu_; //!< reservedArenaBytes_
    std::condition_variable govCv_; //!< reservation released
    std::size_t reservedArenaBytes_ = 0;

    std::mutex shutdownMu_;
    std::condition_variable shutdownCv_;
    bool shutdownRequested_ = false;
    bool shutdownDrain_ = true;

    std::mutex watchdogMu_;
    std::condition_variable watchdogCv_;
};

} // namespace sfetch

#endif // SFETCH_SERVE_SERVER_HH
