/**
 * @file
 * JobJournal: the crash-safety layer under sfetchd's job queue. An
 * append-only NDJSON log in `<state-dir>/jobs.ndjson` records every
 * job's lifecycle:
 *
 *     {"rec": "submitted", "job": 3, "token": "t-3", "spec": {...}}
 *     {"rec": "started",   "job": 3}
 *     {"rec": "finished",  "job": 3, "state": "done"}
 *     {"rec": "worker",    "addr": "tcp:h:9", "op": "register"}
 *
 * `worker` records journal dynamic fleet membership (the `register`
 * and `deregister` protocol verbs): replaying them restores the
 * fleet a restarted front should probe and dispatch to, including
 * deregistrations that mask a static --worker seed member.
 *
 * Each append is one write(2) followed by fdatasync, so after a
 * kill -9 the log is a prefix of the true history plus at most one
 * torn final line. recover() replays the log on startup: every
 * submitted job without a terminal `finished` record is returned —
 * queued *and* in-flight jobs alike — so the server can re-queue
 * them from their stored spec and replay them from scratch
 * (simulation is deterministic, so a re-run is bit-identical, which
 * is the crash-recovery contract the tests enforce). A front daemon
 * recovers a fanned-out job the same way: it re-dispatches every
 * chunk, so no record of which worker got which chunk is kept. Torn
 * or corrupt lines, and lines of a record kind this daemon does not
 * know (such as the `shard` records older fronts wrote), are counted
 * and skipped, never fatal.
 *
 * The log is compacted (live records rewritten to a temp file, then
 * rename(2)'d into place) whenever finished jobs dominate it, so a
 * long-lived daemon's journal stays proportional to its live set.
 *
 * Failure policy: journaling is a best-effort durability upgrade,
 * not a serving dependency. If an append or fsync fails (disk full,
 * injected fault), the journal flips to degraded() — persistence
 * stops, a warning is the daemon's to print, and serving continues
 * unharmed.
 */

#ifndef SFETCH_SERVE_JOURNAL_HH
#define SFETCH_SERVE_JOURNAL_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sfetch
{

/** One not-yet-finished job reconstructed from the log. */
struct RecoveredJob
{
    std::uint64_t id = 0;  //!< id in the *previous* daemon's numbering
    std::string token;     //!< client idempotency token ("" if none)
    std::string spec;      //!< original submit request, verbatim JSON
    bool started = false;  //!< was in flight (not just queued) at crash
};

class JobJournal
{
  public:
    /**
     * Open (creating as needed) `<state_dir>/jobs.ndjson`; the
     * directory itself is created if missing. Throws
     * std::runtime_error when the directory or file cannot be
     * created at all — a state dir that never worked is a
     * configuration error, unlike one that degrades later.
     */
    explicit JobJournal(const std::string &state_dir);
    ~JobJournal();

    JobJournal(const JobJournal &) = delete;
    JobJournal &operator=(const JobJournal &) = delete;

    /**
     * Replay the existing log: returns every submitted job with no
     * terminal record, in submit order. Call once, before the first
     * append. Corrupt/torn lines are skipped and counted in torn().
     * Worker membership records are replayed as a side effect —
     * read the result via recoveredWorkers().
     */
    std::vector<RecoveredJob> recover();

    /**
     * Final (addr, registered) state of every worker named by a
     * `worker` record, in first-seen order, as of the last recover().
     * registered=false entries matter too: they mask a static seed
     * member the operator deregistered at runtime.
     */
    std::vector<std::pair<std::string, bool>> recoveredWorkers() const;

    /**
     * Truncate the log and journal a fresh `submitted` record for
     * each of @p live (the recovered jobs as re-queued, with their
     * new ids). Called once after recovery so the log restarts in
     * the new daemon's id space.
     */
    void reset(const std::vector<RecoveredJob> &live);

    /** Journal a submit. @p spec_json is stored verbatim. */
    void submitted(std::uint64_t id, const std::string &token,
                   const std::string &spec_json);

    /** Journal that a worker picked the job up. */
    void started(std::uint64_t id);

    /** Journal a fleet membership change: @p registered true for
     * `register`, false for `deregister`. */
    void worker(const std::string &addr, bool registered);

    /** Journal a terminal state: "done", "failed", "cancelled" or
     * "stuck". The job will not be recovered after this. */
    void finished(std::uint64_t id, const std::string &state);

    /** True once an append/fsync failed; all later appends no-op. */
    bool degraded() const { return degraded_; }

    /** Corrupt or torn lines skipped by recover(). */
    std::uint64_t torn() const { return torn_; }

    const std::string &path() const { return path_; }

  private:
    struct Live
    {
        std::string token;
        std::string spec;
        bool started = false;
    };

    /** Append one NDJSON line + fdatasync; flips degraded_ on any
     * failure (including injected journal.append / journal.fsync). */
    void appendLine(const std::string &line);

    /** Rewrite the log with only live `submitted`(+`started`)
     * records when finished records dominate. Caller holds mu_. */
    void compactIfNeeded();

    /** Write live_ to a temp file, fsync, rename into place, reopen
     * the append fd. Caller holds mu_. False on any failure. */
    bool rewriteLog();

    /** Record or update @p addr's membership op in workerOps_,
     * keeping first-seen order. Caller holds mu_. */
    void upsertWorkerOp(const std::string &addr, bool registered);

    std::string dir_;
    std::string path_;
    int fd_ = -1;
    mutable std::mutex mu_;
    bool degraded_ = false;
    std::uint64_t torn_ = 0;
    std::uint64_t finishedSinceCompact_ = 0;
    std::map<std::uint64_t, Live> live_; //!< mirrors un-finished jobs
    /** Final membership op per worker address, first-seen order —
     * rewritten (one record each) on compaction. */
    std::vector<std::pair<std::string, bool>> workerOps_;
};

} // namespace sfetch

#endif // SFETCH_SERVE_JOURNAL_HH
