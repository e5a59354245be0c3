/**
 * @file
 * FleetManager: worker membership and health for a multi-node front
 * daemon, a self-healing object rather than a static --worker list:
 *
 *   - *Membership* is dynamic: the static --worker list seeds the
 *     fleet, and the `register`/`deregister` protocol verbs grow and
 *     shrink it at runtime (journalled, so a restarted front recovers
 *     its fleet).
 *   - *Health* is probed in the background: a dedicated thread calls
 *     each member's `health` verb on --probe-interval with a
 *     --probe-timeout deadline, driving a per-worker state machine
 *
 *         alive -> suspect -> dead -> recovering -> alive
 *
 *     Consecutive failures demote (one failure makes a worker
 *     suspect, kDeadAfter make it dead); a probe success while dead
 *     promotes to recovering, and a second success restores alive. A
 *     failure while recovering drops straight back to dead — a
 *     flapping worker is not trusted with work until it holds still.
 *     Dead workers are re-probed under capped exponential backoff so
 *     a large dead set costs bounded probe traffic.
 *   - *Dispatch evidence* feeds the same state machine: a shard
 *     dispatch that fails to connect or loses its stream is a health
 *     observation exactly like a failed probe, so the work-stealing
 *     dispatcher (server.cc runJobSharded) and the prober converge on
 *     one view of the fleet. Only `dead` workers are excluded from
 *     chunk pulls; a suspect worker keeps working while the prober
 *     decides.
 *
 * Threading: one mutex guards all member state. Probe IO runs
 * outside the lock (snapshot the due set, probe, re-apply), so a
 * hung worker can never wedge a stats or dispatch query.
 */

#ifndef SFETCH_SERVE_FLEET_HH
#define SFETCH_SERVE_FLEET_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.hh"

namespace sfetch
{

/** Per-worker health state (see the lifecycle above). */
enum class WorkerState
{
    Alive,      //!< answering probes / delivering shards
    Suspect,    //!< >=1 consecutive failure, still given work
    Dead,       //!< >=kDeadAfter consecutive failures, no work
    Recovering  //!< answered a probe while dead; one more to clear
};

/** Canonical lower-case name for a WorkerState. */
const char *workerStateName(WorkerState s);

/** Fleet knobs (the front daemon's command line maps onto these). */
struct FleetConfig
{
    /** Heartbeat period per worker, ms; <=0 disables the prober
     * thread (dispatch evidence still drives the state machine). */
    int probeIntervalMs = 1000;
    /** Connect + reply deadline for one probe, ms. */
    int probeTimeoutMs = 1000;
    /** Suppress per-transition logging to stderr. */
    bool quiet = false;
};

/** The load figures of a worker's last answered `health` probe. */
struct WorkerHealth
{
    std::uint64_t queueDepth = 0;
    std::uint64_t jobsRunning = 0;
    std::uint64_t uptimeSeconds = 0;
    bool journalDegraded = false;
};

/** Point-in-time copy of one member's state and counters. */
struct WorkerSnapshot
{
    std::string addr;
    WorkerState state = WorkerState::Alive;
    bool staticSeed = false; //!< from --worker, not `register`
    std::uint64_t probes = 0;
    std::uint64_t probeFailures = 0;
    std::uint64_t transitions = 0; //!< state changes, ever
    std::uint64_t dispatchFailures = 0;
    std::uint64_t dispatchSuccesses = 0;
    std::uint64_t deaths = 0; //!< times this worker went dead
    std::uint64_t consecutiveFailures = 0;
    double ewmaLatencyMs = 0.0; //!< probe round-trip, EWMA (a=0.2)
    /** Set once a probe came back with the load figures. */
    std::optional<WorkerHealth> health;
};

class FleetManager
{
  public:
    /** Consecutive failures that demote alive -> suspect. */
    static constexpr unsigned kSuspectAfter = 1;
    /** Consecutive failures that demote to dead. */
    static constexpr unsigned kDeadAfter = 3;
    /** Dead-worker re-probe backoff cap: interval << kMaxBackoffExp. */
    static constexpr unsigned kMaxBackoffExp = 4;

    /** Declares the fleet's metrics in @p metrics, which must
     * outlive the manager. */
    FleetManager(FleetConfig cfg, MetricsRegistry &metrics);
    ~FleetManager();

    FleetManager(const FleetManager &) = delete;
    FleetManager &operator=(const FleetManager &) = delete;

    /** Add the static --worker seed members (marked staticSeed). */
    void seed(const std::vector<std::string> &addrs);

    /**
     * Add @p addr to the fleet (validated against the socket address
     * grammar; throws std::invalid_argument on a malformed address).
     * Re-registering an existing member resets it to alive — a
     * worker announcing itself is a liveness claim. Returns true
     * when the member is new.
     */
    bool registerWorker(const std::string &addr);

    /** Remove @p addr; false when it was not a member. */
    bool deregisterWorker(const std::string &addr);

    /** Member addresses in registration order. */
    std::vector<std::string> members() const;

    std::size_t size() const;
    bool empty() const { return size() == 0; }

    /** True when @p addr is a member and not dead — the dispatcher's
     * pull filter. Unknown addresses are never usable. */
    bool usable(const std::string &addr) const;

    /** True when at least one of @p addrs is usable(). */
    bool anyUsable(const std::vector<std::string> &addrs) const;

    /** A shard dispatch to @p addr failed (connect or stream loss):
     * health evidence, same demotion path as a failed probe. */
    void reportDispatchFailure(const std::string &addr);

    /** A shard dispatch to @p addr completed cleanly. */
    void reportDispatchSuccess(const std::string &addr);

    /**
     * Probe every member whose next probe is due at @p now_ms
     * (steady-clock ms; -1 = "now"), applying results to the state
     * machine. Returns the number of probes sent. The prober thread
     * calls this on its interval; tests call it directly with
     * explicit clocks to step the machine deterministically.
     */
    std::size_t probeAll(std::int64_t now_ms = -1);

    /** Spawn the background prober (no-op when probeIntervalMs<=0 or
     * already started). */
    void start();

    /** Stop and join the prober. Idempotent. */
    void stop();

    std::vector<WorkerSnapshot> snapshot() const;

    /** The members as the JSON array the `workers` and `stats`
     * replies carry. */
    std::string workersJson() const;

  private:
    /** A member is its snapshot plus the prober's schedule. */
    struct Member : WorkerSnapshot
    {
        unsigned backoffExp = 0;         //!< dead re-probe backoff
        std::int64_t nextProbeDueMs = 0; //!< 0 = due immediately
    };

    /** One probe's outcome, applied under the lock afterwards. */
    struct ProbeResult
    {
        bool ok = false;
        double latencyMs = 0.0;
        std::optional<WorkerHealth> health;
    };

    Member *find(const std::string &addr);
    const Member *find(const std::string &addr) const;
    /** Set @p m's state, counting the transition (and death). Caller
     * holds mu_. */
    void toState(Member &m, WorkerState next);
    /** Demote @p m one failure step; caller holds mu_. */
    void applyFailure(Member &m, std::int64_t now_ms);
    /** Promote @p m one success step; caller holds mu_. */
    void applySuccess(Member &m, std::int64_t now_ms);
    /** Health-verb round trip to @p addr, no lock held. */
    ProbeResult probeOne(const std::string &addr) const;
    /** Members in @p s, for the per-state gauges. */
    std::uint64_t countIn(WorkerState s) const;
    void proberLoop();
    void log(const std::string &msg) const;

    FleetConfig cfg_;
    mutable std::mutex mu_; //!< members_
    std::vector<Member> members_;
    // Fleet-wide totals: they outlive deregistered members.
    MetricsRegistry::Counter &probesSent_;
    MetricsRegistry::Counter &probeFailures_;
    MetricsRegistry::Counter &workerDeaths_;

    std::mutex proberMu_;
    std::condition_variable proberCv_;
    bool proberStop_ = false;
    std::thread proberThread_;
};

} // namespace sfetch

#endif // SFETCH_SERVE_FLEET_HH
