#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include <sys/socket.h>
#include <unistd.h>

#include "layout/oracle_arena.hh"
#include "serve/client.hh"
#include "serve/fleet.hh"
#include "serve/journal.hh"
#include "serve/jsonio.hh"
#include "serve/protocol.hh"
#include "serve/socket_io.hh"
#include "sim/cli.hh"
#include "sim/workload_cache.hh"
#include "workload/workload_registry.hh"

namespace sfetch
{

namespace
{

/** Structured protocol error, one line. */
std::string
errorReply(const std::string &reason, const std::string &what)
{
    JsonObjectWriter w;
    w.field("ok", false).field("reason", reason).field("error", what);
    return w.str();
}

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The --worker flag's address convention, shared with the register
 * verb: bare HOST:PORT means tcp:HOST:PORT (a bare token without a
 * scheme or colon stays a Unix path, per the address grammar). */
std::string
normalizeWorkerAddr(const std::string &text)
{
    if (text.rfind("unix:", 0) != 0 && text.rfind("tcp:", 0) != 0 &&
        text.find(':') != std::string::npos)
        return "tcp:" + text;
    return text;
}

/** Append @p scope's metrics to @p w, in declaration order. */
JsonObjectWriter &
writeMetrics(JsonObjectWriter &w, const MetricsRegistry &metrics,
             unsigned scope)
{
    metrics.forEach(scope, [&w](const std::string &name,
                                std::uint64_t value, bool is_flag) {
        if (is_flag)
            w.field(name, value != 0);
        else
            w.field(name, value);
    });
    return w;
}

} // namespace

/**
 * One submitted sweep, held in jobs_ until it retires. A connection
 * thread (the submitter's, or a token resubmitter's after a crash) is
 * the sole consumer of `out`; the worker running the job is the sole
 * producer. Everything else about the job is reached through atomics
 * or is written once before `closed`. Once both sides have let go
 * (releaseJob()), only its JobSummary is kept.
 */
struct Server::Job
{
    std::uint64_t id = 0;
    std::vector<SweepPoint> points;
    std::vector<std::string> benches; //!< unique specs, for pinning
    std::size_t pointCount = 0; //!< survives the points.clear() below
    unsigned sweepJobs = 1;

    std::string token;    //!< client idempotency token ("" if none)
    std::string specJson; //!< raw submit request, for the journal
    std::string clientId; //!< submitter identity (peer credentials)

    ArenaChoice arenaWanted = ArenaChoice::Auto;
    std::size_t estArenaBytes = 0;
    std::size_t reservedBytes = 0; //!< governor grant, while running

    std::atomic<bool> cancel{false};
    std::atomic<bool> finalized{false}; //!< finishJob ran (once)
    std::atomic<JobState> state{JobState::Queued};
    std::atomic<std::uint64_t> pointsDone{0};
    std::atomic<std::int64_t> lastProgressMs{0}; //!< watchdog clock

    std::mutex mu; //!< out, closed, everAttached, workerDone, streamDone
    std::condition_variable cv;
    std::deque<std::string> out;
    bool closed = false;
    /** A consumer has (ever) streamed this job. Recovered jobs start
     * detached: rows buffer in `out` until the original submitter
     * resubmits its token and attaches. */
    bool everAttached = true;
    /** The worker is back from runJob(): the job is finalized, and
     * its points and counts are final. */
    bool workerDone = false;
    /** No consumer will stream the job again: its stream ended or
     * broke. Rows pushed after this are dropped, not buffered. */
    bool streamDone = false;
};

Server::Server(ServeConfig cfg) : cfg_(std::move(cfg))
{
    cores_ = std::max(1u, std::thread::hardware_concurrency());
    if (cfg_.workers == 0)
        cfg_.workers = cores_;
    // Each running job's sweep gets its share of the cores, so a
    // full worker pool keeps every core busy without oversubscribing.
    sweepShare_ = std::max(1u, cores_ / cfg_.workers);
    for (std::string &w : cfg_.workerAddrs)
        w = normalizeWorkerAddr(w);

    // The gauges, in reply order; the counters are declared with
    // their members in server.hh.
    using M = MetricsRegistry;
    WorkloadCache &cache = WorkloadCache::instance();
    auto queued = [this] { return countJobs(JobState::Queued); };
    metrics_.flag("draining", [this] { return draining_.load(); },
                  M::kHealth);
    metrics_.gauge("jobs_queued", queued, M::kStats | M::kHealth);
    metrics_.gauge("jobs_running",
                   [this] { return countJobs(JobState::Running); },
                   M::kStats | M::kHealth);
    metrics_.gauge("jobs_live",
                   [this] {
                       std::lock_guard<std::mutex> lock(mu_);
                       return jobs_.size();
                   },
                   M::kStats | M::kHealth);
    metrics_.gauge("queue_depth", queued, M::kHealth);
    metrics_.gauge("workers_configured",
                   [n = cfg_.workerAddrs.size()] { return n; });
    // The fleet exists on every daemon (a worker-only daemon just has
    // an empty one), so the register verb can turn any instance into
    // a front at runtime.
    fleet_ = std::make_unique<FleetManager>(
        FleetConfig{cfg_.probeIntervalMs, cfg_.probeTimeoutMs,
                    cfg_.quiet},
        metrics_);
    metrics_.gauge("conns_active", [this] {
        std::lock_guard<std::mutex> lock(connMu_);
        return conns_.size();
    });
    metrics_.gauge("cache_hits", [&cache] { return cache.hits(); });
    metrics_.gauge("cache_misses", [&cache] { return cache.misses(); });
    metrics_.gauge("cache_evictions",
                   [&cache] { return cache.evictions(); });
    metrics_.gauge("resident_arena_bytes",
                   [&cache] { return cache.bytesResident(); });
    metrics_.gauge("resident_workload_bytes",
                   [&cache] { return cache.workloadBytes(); });
    metrics_.gauge("live_arena_bytes", &OracleArena::liveBytes);
    metrics_.gauge("arena_decodes", &PlacedWorkload::arenaDecodes);
    metrics_.gauge("arena_decode_ms", [] {
        return PlacedWorkload::arenaDecodeNanos() / 1'000'000;
    });
    metrics_.gauge("mem_budget_bytes",
                   [n = cfg_.memBudgetBytes] { return n; });
    metrics_.flag("journal_degraded",
                  [this] { return journal_ && journal_->degraded(); },
                  M::kStats | M::kHealth);
    metrics_.gauge("journal_torn_lines",
                   [this] { return journal_ ? journal_->torn() : 0; });
    metrics_.gauge("uptime_seconds",
                   [this] { return (nowMs() - startMs_) / 1000; },
                   M::kHealth);
}

Server::~Server()
{
    stop(false);
}

void
Server::start()
{
    startMs_ = nowMs();
    if (!cfg_.stateDir.empty()) {
        journal_ = std::make_unique<JobJournal>(cfg_.stateDir);
        const std::size_t n = recoverJobs();
        if (n > 0 || journal_->torn() > 0)
            log("journal: re-queued " + std::to_string(n) +
                " job(s), skipped " +
                std::to_string(journal_->torn()) +
                " torn/corrupt line(s)");
    }
    // Static seeds first, then the journalled membership ops — a
    // journalled deregister masks a static seed.
    fleet_->seed(cfg_.workerAddrs);
    if (journal_) {
        for (const auto &[waddr, registered] :
             journal_->recoveredWorkers()) {
            try {
                if (registered)
                    fleet_->registerWorker(waddr);
                else
                    fleet_->deregisterWorker(waddr);
            } catch (const std::exception &e) {
                log("journal: dropping bad worker record '" + waddr +
                    "': " + e.what());
            }
        }
    }
    const SocketAddr addr = parseSocketAddr(cfg_.socketPath);
    listenFd_ = listenSocket(addr);
    boundAddress_ = boundAddr(listenFd_, addr).text();
    running_ = true;
    for (unsigned w = 0; w < cfg_.workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
    if (cfg_.pointTimeoutMs > 0)
        watchdogThread_ = std::thread([this] { watchdogLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    log("listening on " + boundAddress_ + " (" +
        std::to_string(cfg_.workers) + " worker" +
        (cfg_.workers == 1 ? "" : "s") + ", budget " +
        std::to_string(cfg_.memBudgetBytes >> 20) + " MiB)");
    if (!fleet_->empty()) {
        std::string list;
        for (const std::string &w : fleet_->members())
            list += (list.empty() ? "" : ", ") + w;
        log("front mode: fanning sweeps out across " +
            std::to_string(fleet_->size()) + " worker(s): " + list);
    }
    fleet_->start();
}

void
Server::stop(bool drain)
{
    if (!running_.exchange(false))
        return;
    draining_ = true;
    log(drain ? "draining..." : "stopping...");
    if (!drain) {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &[id, job] : jobs_)
            job->cancel = true;
    }
    // Workers finish the queue (instantly when everything is
    // cancelled) before they see stopping_ with an empty queue.
    stopping_ = true;
    queueCv_.notify_all();
    govCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
    // Pumps (inside the worker threads) are gone; now the prober can
    // go too.
    fleet_->stop();
    watchdogCv_.notify_all();
    if (watchdogThread_.joinable())
        watchdogThread_.join();

    // Streams have all flushed (every job is closed once its worker
    // returns), so connection threads are back in readLine — wake
    // them with EOF, wait for each to retire itself, then collect
    // the thread handles.
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    acceptThread_.join();
    {
        std::lock_guard<std::mutex> lock(connMu_);
        for (const auto &[id, ch] : conns_)
            ch->shutdownRead();
    }
    {
        std::unique_lock<std::mutex> lock(connMu_);
        connCv_.wait(lock, [this] { return conns_.empty(); });
    }
    std::map<std::uint64_t, std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        threads.swap(connThreads_);
        doneConnIds_.clear();
    }
    for (auto &[id, t] : threads)
        t.join();
    const SocketAddr addr = parseSocketAddr(cfg_.socketPath);
    if (addr.kind == SocketAddr::Kind::Unix)
        ::unlink(addr.path.c_str());
    log("stopped");
}

void
Server::requestShutdown(bool drain)
{
    {
        std::lock_guard<std::mutex> lock(shutdownMu_);
        if (shutdownRequested_)
            return;
        shutdownRequested_ = true;
        shutdownDrain_ = drain;
    }
    shutdownCv_.notify_all();
}

bool
Server::waitShutdown()
{
    std::unique_lock<std::mutex> lock(shutdownMu_);
    shutdownCv_.wait(lock, [this] { return shutdownRequested_; });
    return shutdownDrain_;
}

void
Server::reapConnThreads()
{
    std::vector<std::thread> dead;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        std::vector<std::uint64_t> keep;
        for (std::uint64_t id : doneConnIds_) {
            auto it = connThreads_.find(id);
            if (it == connThreads_.end()) {
                keep.push_back(id); // handle not registered yet
                continue;
            }
            dead.push_back(std::move(it->second));
            connThreads_.erase(it);
        }
        doneConnIds_ = std::move(keep);
    }
    for (std::thread &t : dead)
        t.join();
}

void
Server::acceptLoop()
{
    while (true) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listen fd shut down: server stopping
        }
        // Finished connections retire themselves from conns_ but
        // cannot join their own thread; collect the handles here so
        // a long-lived daemon holds resources only for connections
        // that still exist.
        reapConnThreads();
        auto ch = std::make_shared<LineChannel>(fd);
        ch->setReadTimeout(cfg_.idleTimeoutMs);
        ch->setWriteTimeout(cfg_.writeTimeoutMs);
        std::uint64_t id = 0;
        {
            std::lock_guard<std::mutex> lock(connMu_);
            if (cfg_.maxConns == 0 ||
                conns_.size() < cfg_.maxConns) {
                id = nextConnId_++;
                conns_[id] = ch;
            }
        }
        if (id == 0) {
            connsRejected_.fetch_add(1);
            ch->writeLine(errorReply(
                "busy", std::to_string(cfg_.maxConns) +
                            " connections active, cap reached"));
            continue; // ch closes on scope exit
        }
        std::thread th([this, id, ch] {
            serveConnection(ch);
            std::lock_guard<std::mutex> lock(connMu_);
            conns_.erase(id);
            doneConnIds_.push_back(id);
            // Notify under the lock: stop() cannot outrun us past
            // its wait while we still hold connMu_.
            connCv_.notify_all();
        });
        std::lock_guard<std::mutex> lock(connMu_);
        connThreads_[id] = std::move(th);
    }
}

void
Server::serveConnection(const std::shared_ptr<LineChannel> &ch)
{
    std::string line;
    while (true) {
        if (!ch->readLine(line)) {
            if (ch->timedOut()) {
                connTimeouts_.fetch_add(1);
                ch->writeLine(errorReply(
                    "timeout", "idle timeout: no request within " +
                                   std::to_string(cfg_.idleTimeoutMs) +
                                   " ms"));
            }
            return;
        }
        handleRequest(line, *ch);
    }
}

void
Server::handleRequest(const std::string &line, LineChannel &ch)
{
    using Id = VerbSpec::Id;
    JsonValue json;
    const VerbSpec *verb = nullptr;
    try {
        try {
            json = JsonReader(line).parse();
        } catch (const std::runtime_error &e) {
            throw ProtocolError("bad_json", e.what());
        }
        verb = &ProtocolSchema::instance().verbOf(json);
        checkObject(verb->fields, json, verb->name);
        const Request req(verb->fields, json);
        switch (verb->id) {
        case Id::Submit:
            return handleSubmit(req, line, ch);
        case Id::Status:
        case Id::Cancel:
            ch.writeLine(handleJobVerb(req, verb->id == Id::Cancel));
            return;
        case Id::Stats:
            ch.writeLine(statsJson());
            return;
        case Id::Health: {
            JsonObjectWriter w;
            writeMetrics(w.field("ok", true).field("health", "ok"),
                         metrics_, MetricsRegistry::kHealth);
            ch.writeLine(w.str());
            return;
        }
        case Id::Workers:
            ch.writeLine(statsJson(MetricsRegistry::kWorkers));
            return;
        case Id::Register:
        case Id::Deregister:
            ch.writeLine(
                handleWorkerMembership(req, verb->id == Id::Register));
            return;
        case Id::Shutdown: {
            JsonObjectWriter w;
            w.field("ok", true)
                .field("shutting_down", true)
                .field("drain", req.flag("drain"));
            ch.writeLine(w.str());
            requestShutdown(req.flag("drain"));
            return;
        }
        }
    } catch (const std::exception &e) {
        // The schema's refusals carry their reason; anything else a
        // handler failed to classify is the client's spec.
        const auto *refusal = dynamic_cast<const ProtocolError *>(&e);
        if (verb && verb->id == Id::Submit)
            jobsRejected_.fetch_add(1);
        ch.writeLine(
            errorReply(refusal ? refusal->reason : "bad_spec", e.what()));
    }
}

std::shared_ptr<Server::Job>
Server::makeJob(const Request &req)
{
    auto job = std::make_shared<Job>();
    if (req.has("points")) {
        // Explicit form: the point list is given outright, one
        // object per sweep point.
        for (const Request &e : req.points("points")) {
            SweepPoint p;
            p.bench = canonicalBenchSpec(e.text("bench"));
            p.cfg = SimConfig::fromSpec(e.text("spec"));
            p.cfg.width = static_cast<unsigned>(e.u64("width"));
            p.cfg.optimizedLayout =
                e.choice<LayoutChoice>("layout") == LayoutChoice::Opt;
            p.cfg.insts = e.u64("insts");
            p.cfg.warmupInsts = e.u64("warmup");
            if (std::find(job->benches.begin(), job->benches.end(),
                          p.bench) == job->benches.end())
                job->benches.push_back(p.bench);
            job->points.push_back(std::move(p));
        }
    } else {
        CliOptions opts;
        opts.insts = req.u64("insts");
        opts.warmupSet = req.has("warmup");
        if (opts.warmupSet)
            opts.warmupInsts = req.u64("warmup");
        const bool optimized =
            req.choice<LayoutChoice>("layout") == LayoutChoice::Opt;
        std::vector<std::string> benches =
            resolveBenches(parseBenchSpecList(req.text("bench")));
        std::vector<SimConfig> archs = parseArchSpecList(req.text("arch"));
        std::vector<SimConfig> cfgs;
        for (unsigned w : req.widths("widths"))
            for (const SimConfig &arch : archs)
                cfgs.push_back(opts.stamped(arch, w, optimized));

        job->points = SweepDriver::grid(benches, cfgs);
        job->benches = std::move(benches);
    }
    job->pointCount = job->points.size();
    // Omitted or 0 means the derived share; anything else is clamped
    // to the cores, so no submit can spawn threads without bound.
    job->sweepJobs = sweepShare_;
    if (const std::uint64_t n = req.has("jobs") ? req.u64("jobs") : 0)
        job->sweepJobs =
            static_cast<unsigned>(std::min<std::uint64_t>(n, cores_));
    job->arenaWanted = req.choice<ArenaChoice>("arena");
    job->estArenaBytes = estimatedArenaBytes(job->points);
    return job;
}

namespace
{

const char *
jobStateName(int state_ord)
{
    switch (state_ord) {
    case 0: return "queued";
    case 1: return "running";
    case 2: return "done";
    case 3: return "cancelled";
    case 4: return "failed";
    case 5: return "stuck";
    }
    return "unknown";
}

} // namespace

void
Server::handleSubmit(const Request &req, const std::string &line,
                     LineChannel &ch)
{
    // Token idempotency first: a resubmit of a known token must
    // never create (or be rejected as) a second job. A never-
    // attached job — recovered from the journal after a crash — is
    // *attached*: its buffered rows and all future ones stream to
    // this connection. Anything else is a duplicate: one summary
    // line, no second run.
    const std::string token = req.text("token");
    if (!token.empty()) {
        std::shared_ptr<Job> existing;
        JobSummary summary;
        std::uint64_t id = 0;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = tokens_.find(token);
            if (it != tokens_.end()) {
                id = it->second;
                existing = lookupJob(id, summary);
            }
        }
        if (id != 0) {
            bool attach = false;
            if (existing) {
                std::lock_guard<std::mutex> lock(existing->mu);
                if (!existing->everAttached) {
                    existing->everAttached = true;
                    attach = true;
                }
            }
            if (attach) {
                log("job " + std::to_string(id) + ": token '" + token +
                    "' reattached");
                JsonObjectWriter w;
                w.field("ok", true)
                    .field("job", id)
                    .field("points", static_cast<std::uint64_t>(
                                         existing->pointCount))
                    .field("attached", true);
                if (!ch.writeLine(w.str()) ||
                    !streamJob(existing, ch))
                    existing->cancel = true;
                releaseJob(existing, false);
            } else {
                JsonObjectWriter w;
                w.field("ok", true)
                    .field("job", id)
                    .field("duplicate", true);
                writeSummary(w, summary).field("done", true);
                ch.writeLine(w.str());
            }
            return;
        }
    }

    // Spec parsing and admission refuse by throwing (handleRequest
    // replies and counts the rejection) before touching daemon state.
    std::shared_ptr<Job> job = makeJob(req);
    job->token = token;
    job->specJson = line;
    job->clientId = ch.peerId();

    // Admission control.
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (draining_)
            throw ProtocolError("draining", "daemon is shutting down");
        if (job->pointCount == 0)
            throw ProtocolError("bad_spec", "submit expands to 0 points");
        if (job->pointCount > cfg_.maxPointsPerJob)
            throw ProtocolError("max_points_per_job",
                                "submit expands to " +
                                    std::to_string(job->pointCount) +
                                    " points, cap is " +
                                    std::to_string(cfg_.maxPointsPerJob));
        std::size_t active = 0, mine = 0;
        for (const auto &[id, j] : jobs_) {
            JobState s = j->state.load();
            if (s != JobState::Queued && s != JobState::Running)
                continue;
            ++active;
            if (!job->clientId.empty() &&
                j->clientId == job->clientId)
                ++mine;
        }
        if (active >= cfg_.maxJobs)
            throw ProtocolError("queue_full",
                                std::to_string(active) +
                                    " jobs active, cap is " +
                                    std::to_string(cfg_.maxJobs));
        if (cfg_.maxJobsPerClient != 0 &&
            mine >= cfg_.maxJobsPerClient)
            throw ProtocolError(
                "over_quota", "client has " + std::to_string(mine) +
                                  " active jobs, per-client cap is " +
                                  std::to_string(cfg_.maxJobsPerClient));
        if (job->arenaWanted == ArenaChoice::Require &&
            job->estArenaBytes > cfg_.memBudgetBytes)
            throw ProtocolError("over_budget",
                                "arena estimate " +
                                    std::to_string(job->estArenaBytes) +
                                    " B exceeds budget " +
                                    std::to_string(cfg_.memBudgetBytes) +
                                    " B");
        job->id = nextJobId_++;
        jobs_[job->id] = job;
        if (!job->token.empty())
            tokens_[job->token] = job->id;
        queue_.push_back(job);
    }
    if (journal_)
        journal_->submitted(job->id, job->token, job->specJson);
    jobsSubmitted_.fetch_add(1);
    queueCv_.notify_one();
    log("job " + std::to_string(job->id) + ": submitted, " +
        std::to_string(job->pointCount) + " points, arena est " +
        std::to_string(job->estArenaBytes >> 20) + " MiB");

    // Acknowledge, then stream until the job closes. `arena` here is
    // the plan (mode and budget permitting); the per-row framing
    // carries the governor's actual decision.
    {
        JsonObjectWriter w;
        w.field("ok", true)
            .field("job", job->id)
            .field("points",
                   static_cast<std::uint64_t>(job->pointCount))
            .field("jobs", static_cast<std::uint64_t>(job->sweepJobs))
            .field("arena",
                   job->arenaWanted != ArenaChoice::Off &&
                       job->estArenaBytes > 0 &&
                       job->estArenaBytes <= cfg_.memBudgetBytes);
        if (!ch.writeLine(w.str()) || !streamJob(job, ch)) {
            // Peer vanished or stalled past the write deadline: stop
            // burning cycles on rows nobody will read.
            job->cancel = true;
        }
    }
    releaseJob(job, false);
}

bool
Server::streamJob(const std::shared_ptr<Job> &job, LineChannel &ch)
{
    while (true) {
        std::string line;
        {
            std::unique_lock<std::mutex> lock(job->mu);
            job->cv.wait(lock, [&] {
                return job->closed || !job->out.empty();
            });
            if (job->out.empty())
                return true; // closed and fully drained
            line = std::move(job->out.front());
            job->out.pop_front();
        }
        if (!ch.writeLine(line)) {
            if (ch.timedOut())
                connTimeouts_.fetch_add(1);
            return false;
        }
    }
}

std::size_t
Server::recoverJobs()
{
    std::vector<RecoveredJob> prior = journal_->recover();
    std::vector<RecoveredJob> live;
    for (const RecoveredJob &rec : prior) {
        try {
            // The same check as a live submit: a line an older daemon
            // accepted but this protocol refuses is dropped below.
            JsonValue json = JsonReader(rec.spec).parse();
            const VerbSpec &submit =
                ProtocolSchema::instance().verbOf(json);
            if (submit.id != VerbSpec::Id::Submit)
                throw std::invalid_argument("not a submit");
            checkObject(submit.fields, json, submit.name);
            std::shared_ptr<Job> job =
                makeJob(Request(submit.fields, json));
            job->token = rec.token;
            job->specJson = rec.spec;
            // No consumer yet: buffer every row until the submitter
            // resubmits its token and attaches. Without a token no one
            // can attach, so nothing is buffered.
            job->everAttached = false;
            job->streamDone = job->token.empty();
            {
                std::lock_guard<std::mutex> lock(mu_);
                job->id = nextJobId_++;
                jobs_[job->id] = job;
                if (!job->token.empty())
                    tokens_[job->token] = job->id;
                queue_.push_back(job);
            }
            RecoveredJob renumbered = rec;
            renumbered.id = job->id;
            renumbered.started = false; // re-queued, re-runs whole
            live.push_back(std::move(renumbered));
            log("journal: job " + std::to_string(rec.id) +
                (rec.started ? " (was in flight)" : "") +
                " re-queued as job " + std::to_string(job->id));
        } catch (const std::exception &e) {
            log("journal: dropping unreplayable job " +
                std::to_string(rec.id) + ": " + e.what());
        }
    }
    journal_->reset(live);
    jobsRecovered_.fetch_add(live.size());
    return live.size();
}

std::string
Server::handleJobVerb(const Request &req, bool cancel)
{
    const std::uint64_t id = req.u64("job");
    JobSummary summary;
    std::shared_ptr<Job> job;
    {
        std::lock_guard<std::mutex> lock(mu_);
        job = lookupJob(id, summary);
    }
    JsonObjectWriter w;
    w.field("ok", true).field("job", id);
    if (cancel) {
        // Only a live job is queued or running; a retired one is not.
        const bool live = summary.state == JobState::Queued ||
                          summary.state == JobState::Running;
        if (live)
            job->cancel = true;
        w.field("cancelled", live);
    } else {
        writeSummary(w, summary);
    }
    return w.str();
}

std::string
Server::handleWorkerMembership(const Request &req, bool add)
{
    const std::string addr = normalizeWorkerAddr(req.text("worker"));
    if (add) {
        // An address the fleet cannot parse is the client's bad_spec.
        const bool added = fleet_->registerWorker(addr);
        if (journal_)
            journal_->worker(addr, true);
        log(std::string("fleet: worker ") + addr +
            (added ? " registered" : " re-registered"));
        JsonObjectWriter w;
        w.field("ok", true)
            .field("worker", addr)
            .field("registered", true)
            .field("known", !added)
            .field("workers",
                   static_cast<std::uint64_t>(fleet_->size()));
        return w.str();
    }
    if (!fleet_->deregisterWorker(addr))
        throw ProtocolError("unknown_worker",
                            "'" + addr + "' is not a fleet member");
    if (journal_)
        journal_->worker(addr, false);
    log("fleet: worker " + addr + " deregistered");
    JsonObjectWriter w;
    w.field("ok", true)
        .field("worker", addr)
        .field("registered", false)
        .field("workers", static_cast<std::uint64_t>(fleet_->size()));
    return w.str();
}

void
Server::workerLoop()
{
    while (true) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            queueCv_.wait(lock, [this] {
                return stopping_.load() || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_, queue fully drained
            job = queue_.front();
            queue_.pop_front();
            job->lastProgressMs = nowMs();
            job->state = JobState::Running;
        }
        if (journal_)
            journal_->started(job->id);
        runJob(job);
        releaseJob(job, true);
    }
}

void
Server::watchdogLoop()
{
    const auto interval = std::chrono::milliseconds(
        std::max(cfg_.pointTimeoutMs / 4, 1));
    std::unique_lock<std::mutex> lock(watchdogMu_);
    while (!stopping_.load()) {
        watchdogCv_.wait_for(lock, interval);
        if (stopping_.load())
            return;
        std::vector<std::shared_ptr<Job>> overdue;
        const std::int64_t now = nowMs();
        {
            std::lock_guard<std::mutex> jobs_lock(mu_);
            for (const auto &[id, job] : jobs_)
                if (job->state.load() == JobState::Running &&
                    now - job->lastProgressMs.load() >
                        cfg_.pointTimeoutMs)
                    overdue.push_back(job);
        }
        for (const std::shared_ptr<Job> &job : overdue) {
            // The worker thread is captive inside the point (the
            // cooperative stop flag is only checked between points),
            // so retire the *job*: its admission slot frees now, its
            // consumer gets a terminal summary now, and the worker's
            // own finishJob becomes a no-op when the point finally
            // completes.
            job->cancel = true;
            finishJob(job, JobState::Stuck,
                      "point exceeded --point-timeout (" +
                          std::to_string(cfg_.pointTimeoutMs) +
                          " ms)",
                      0.0, false);
        }
    }
}

bool
Server::decideArena(const std::shared_ptr<Job> &job)
{
    if (job->arenaWanted == ArenaChoice::Off ||
        job->estArenaBytes == 0)
        return false; // no >=2-point group: nothing to decode anyway
    const std::size_t budget = cfg_.memBudgetBytes;
    const std::size_t est = job->estArenaBytes;
    WorkloadCache &cache = WorkloadCache::instance();
    std::unique_lock<std::mutex> lock(govMu_);
    while (true) {
        // Make room: shrink the cache until (cache-resident) +
        // (reserved by running jobs) + (this job) fits the budget.
        // Compared by subtraction: a saturated estimate must not wrap.
        const std::size_t reserved = reservedArenaBytes_;
        const bool fits = est <= budget && reserved <= budget - est;
        const std::size_t room = fits ? budget - reserved - est : 0;
        cache.evictToBudget(room);
        if (fits && cache.bytesResident() <= room) {
            reservedArenaBytes_ += est;
            job->reservedBytes = est;
            return true;
        }
        if (job->arenaWanted != ArenaChoice::Require ||
            job->cancel.load() || stopping_.load()) {
            arenaFallbacks_.fetch_add(1);
            log("job " + std::to_string(job->id) +
                ": arena fallback (est " + std::to_string(est >> 20) +
                " MiB would exceed budget)");
            return false;
        }
        // Require within total budget: concurrent reservations are
        // the only obstruction, so wait for one to release.
        govCv_.wait_for(lock, std::chrono::milliseconds(100));
    }
}

void
Server::runJob(const std::shared_ptr<Job> &job)
{
    if (job->cancel.load()) {
        finishJob(job, JobState::Cancelled, "", 0.0, false);
        return;
    }
    if (!fleet_->empty()) {
        // Front daemon: nothing is simulated here — the job fans
        // out across the worker fleet instead. The decision is per
        // job, so registering a first worker flips a local daemon
        // into a front for subsequent jobs (and deregistering the
        // last one flips it back).
        runJobSharded(job);
        return;
    }
    // Pin every workload for the duration of the run: the driver's
    // internal get() calls resolve to these same (now unevictable)
    // entries, so another job's governor can never pull a workload
    // out from under this sweep.
    std::vector<std::shared_ptr<const PlacedWorkload>> pins;
    try {
        pins.reserve(job->benches.size());
        for (const std::string &bench : job->benches)
            pins.push_back(
                WorkloadCache::instance().getShared(bench));

        SweepDriver driver(job->sweepJobs);
        driver.setQuiet(true);
        driver.setArenaMode(decideArena(job));
        driver.setStopFlag(&job->cancel);
        ResultSet rs = driver.run(
            job->points,
            [&](const ResultRow &row, std::size_t point,
                std::size_t of) {
                job->pointsDone.fetch_add(1);
                job->lastProgressMs = nowMs();
                rowsStreamed_.fetch_add(1);
                JsonObjectWriter w;
                w.field("job", job->id)
                    .field("point",
                           static_cast<std::uint64_t>(point))
                    .field("of", static_cast<std::uint64_t>(of))
                    .field("arena", row.sharedArena)
                    .raw("row", rowJson(row));
                pushLine(job, w.str());
            });
        releaseReservation(job);
        // The summary's `arena`: every point ran and replayed a
        // shared arena.
        bool all_shared = rs.size() == job->pointCount;
        for (const ResultRow &row : rs.rows())
            all_shared = all_shared && row.sharedArena;
        finishJob(job,
                  job->cancel.load() ? JobState::Cancelled
                                     : JobState::Done,
                  "", rs.wallSeconds(), all_shared);
    } catch (const std::exception &e) {
        releaseReservation(job);
        finishJob(job, JobState::Failed, e.what(), 0.0, false);
    }
}

namespace
{

/**
 * The raw `"row": {...}` payload of a worker row frame. The framing
 * always writes "row" last (the same invariant journal recovery
 * leans on for "spec"), so the payload is the tail of the line minus
 * the frame's own closing brace. Returning the worker's bytes
 * verbatim — never re-rendered — is what makes the merged stream
 * bit-identical to a local run.
 */
std::string
rowPayloadOf(const std::string &frame)
{
    static constexpr char kKey[] = "\"row\": ";
    const std::size_t at = frame.find(kKey);
    if (at == std::string::npos)
        return {};
    std::string payload = frame.substr(at + sizeof(kKey) - 1);
    if (payload.empty() || payload.back() != '}')
        return {};
    payload.pop_back();
    return payload;
}

/** The shard's submit request: the explicit `"points"` form over the
 * chosen subset, pinned to "jobs":1 so the worker streams rows in
 * shard order and workers sharing a host do not oversubscribe it. */
std::string
shardSubmitJson(const std::vector<SweepPoint> &points,
                const std::vector<std::size_t> &indices,
                ArenaChoice arena)
{
    const VerbSpec &submit =
        ProtocolSchema::instance().verb(VerbSpec::Id::Submit);
    std::string pts;
    for (std::size_t i : indices) {
        const SimConfig &cfg = points[i].cfg;
        pts += (pts.empty() ? "[" : ", ") +
               RequestWriter(fieldOf(submit.fields, "points").fields)
                   .set("bench", points[i].bench)
                   .set("spec", cfg.specText())
                   .set("width", cfg.width)
                   .setChoice("layout", cfg.optimizedLayout
                                            ? LayoutChoice::Opt
                                            : LayoutChoice::Base)
                   .set("insts", cfg.insts)
                   .set("warmup", cfg.warmupInsts)
                   .str();
    }
    return RequestWriter(submit)
        .setJson("points", pts + "]")
        .set("jobs", 1)
        .setChoice("arena", arena)
        .str();
}

} // namespace

void
Server::runJobSharded(const std::shared_ptr<Job> &job)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t total = job->pointCount;

    // The fleet as of job start. A worker registered mid-job joins
    // at the next job; one deregistered mid-job just stops being
    // usable() (its pump parks until the job ends).
    const std::vector<std::string> members = fleet_->members();
    if (members.empty()) {
        finishJob(job, JobState::Failed,
                  std::to_string(total) + " of " +
                      std::to_string(total) +
                      " point(s) undeliverable (fleet is empty)",
                  0.0, false);
        return;
    }

    /** One contiguous slice of the grid, the unit of work stealing. */
    struct Chunk
    {
        std::vector<std::size_t> indices; //!< global point indices
        unsigned attempts = 0; //!< stream losses survived so far
    };

    // One lock guards the chunk queue, the merge state and the
    // in-flight accounting: pumps (consumers of chunks, producers of
    // rows) and this worker thread (the emitter) all meet here. Rows
    // land in `ready` keyed by global point index; emission advances
    // strictly in index order, so the client-observed stream has
    // point order no matter how chunks land on workers.
    struct Dispatch
    {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Chunk> queue;
        std::map<std::size_t, std::string> ready;
        std::vector<char> delivered;
        std::size_t next = 0;  //!< next global index to emit
        std::size_t deliveredCount = 0;
        unsigned inFlight = 0; //!< chunks on a wire right now
        bool failed = false;   //!< structural-failure latch
        std::string failReason;
        bool allArena = true;
    } d;
    d.delivered.assign(total, 0);

    const std::size_t chunkPts =
        std::max<std::size_t>(cfg_.chunkPoints, 1);
    for (std::size_t at = 0; at < total; at += chunkPts) {
        Chunk c;
        for (std::size_t i = at;
             i < std::min(at + chunkPts, total); ++i)
            c.indices.push_back(i);
        d.queue.push_back(std::move(c));
    }

    // Dispatch one chunk to one worker. Returns true when every
    // point was delivered; any failure requeues the undelivered rest.
    auto runChunk = [&](const std::string &addr, Chunk chunk) {
        shardsDispatched_.fetch_add(1);
        if (chunk.attempts > 0) {
            shardRetries_.fetch_add(1);
            pointsRedispatched_.fetch_add(chunk.indices.size());
            log("job " + std::to_string(job->id) +
                ": re-dispatching " +
                std::to_string(chunk.indices.size()) +
                " point(s) to " + addr + " (attempt " +
                std::to_string(chunk.attempts + 1) + ")");
        }
        bool acked = false; // the worker took the chunk
        try {
            // One connect attempt: a worker that is not there costs
            // a requeue, and the next pull goes by fleet health.
            ServeClient::ConnectRetry once;
            once.connectTimeoutMs = cfg_.probeTimeoutMs;
            ServeClient wc(addr, once);
            if (cfg_.pointTimeoutMs > 0)
                wc.setReadTimeout(cfg_.pointTimeoutMs);
            wc.submitStream(
                shardSubmitJson(job->points, chunk.indices,
                                job->arenaWanted),
                [&](const JsonValue &parsed, const std::string &raw) {
                    if (job->cancel.load())
                        return false;
                    if (const JsonValue *ok = parsed.find("ok"))
                        acked = ok->kind == JsonValue::Kind::Bool &&
                                ok->boolean;
                    const JsonValue *pt = parsed.find("point");
                    if (!pt || !parsed.find("row"))
                        return true; // summary/terminator frame
                    const std::size_t local =
                        static_cast<std::size_t>(pt->asU64());
                    if (local >= chunk.indices.size())
                        return false; // not our framing: bail
                    const std::size_t g = chunk.indices[local];
                    bool arena = false;
                    if (const JsonValue *a = parsed.find("arena"))
                        arena = a->kind == JsonValue::Kind::Bool &&
                                a->boolean;
                    std::string payload = rowPayloadOf(raw);
                    if (payload.empty())
                        return false;
                    JsonObjectWriter w;
                    w.field("job", job->id)
                        .field("point",
                               static_cast<std::uint64_t>(g))
                        .field("of",
                               static_cast<std::uint64_t>(total))
                        .field("arena", arena)
                        .raw("row", payload);
                    // Progress means delivery, not emission: a row
                    // parked behind an undelivered gap must still
                    // hold the watchdog off.
                    job->lastProgressMs = nowMs();
                    std::lock_guard<std::mutex> lock(d.mu);
                    if (!d.delivered[g]) {
                        d.delivered[g] = 1;
                        ++d.deliveredCount;
                        d.ready[g] = w.str();
                        if (!arena)
                            d.allArena = false;
                        d.cv.notify_all();
                    }
                    return true;
                });
        } catch (const std::exception &e) {
            log("job " + std::to_string(job->id) + ": chunk on " +
                addr + " failed: " + e.what());
        }
        if (job->cancel.load())
            return true; // lost rows are moot; don't blame anyone
        Chunk rest;
        {
            std::lock_guard<std::mutex> lock(d.mu);
            for (std::size_t g : chunk.indices)
                if (!d.delivered[g])
                    rest.indices.push_back(g);
        }
        if (rest.indices.empty()) {
            fleet_->reportDispatchSuccess(addr);
            return true;
        }
        // Health evidence: a failed dispatch demotes the worker just
        // like a failed probe, so a dying worker stops pulling work
        // (usable() goes false at dead) without any job-level state.
        fleet_->reportDispatchFailure(addr);
        // A failure before the ack (no connect, or a submit refused
        // queue_full/draining/busy) never ran anything: requeue at no
        // cost to the chunk's attempt budget — the worker's own march
        // to `dead` is what bounds futile re-dispatch. A stream-level
        // failure (acked, then lost rows) spends an attempt; a chunk
        // that exhausts cfg_.shardRetries stream losses fails the job
        // structurally.
        rest.attempts = chunk.attempts + (acked ? 1 : 0);
        {
            std::lock_guard<std::mutex> lock(d.mu);
            if (acked && rest.attempts > cfg_.shardRetries) {
                d.failed = true;
                d.failReason =
                    "chunk lost its stream " +
                    std::to_string(rest.attempts) +
                    " time(s), retry budget is " +
                    std::to_string(cfg_.shardRetries);
            } else {
                // Front of the queue: these points gate the in-order
                // merge, so they go back on a wire first.
                d.queue.push_front(std::move(rest));
            }
        }
        // A requeue is progress too: the job is being repaired, not
        // stuck, so the watchdog clock resets.
        job->lastProgressMs = nowMs();
        d.cv.notify_all();
        return false;
    };

    // One pump per fleet member: pull a chunk when the worker is
    // usable and the queue is non-empty, park otherwise. An idle
    // healthy pump steals naturally — the queue is shared.
    auto pump = [&](const std::string &addr) {
        bool backoff = false;
        while (true) {
            Chunk c;
            {
                std::unique_lock<std::mutex> lock(d.mu);
                if (backoff) {
                    // After this worker's own failed dispatch, yield
                    // for a beat: the requeue's notify wakes idle
                    // healthy pumps, which should win the re-grab.
                    d.cv.wait_for(lock,
                                  std::chrono::milliseconds(150));
                    backoff = false;
                }
                while (true) {
                    if (job->cancel.load() || d.failed ||
                        d.deliveredCount == total)
                        return;
                    if (!d.queue.empty()) {
                        if (fleet_->usable(addr)) {
                            c = std::move(d.queue.front());
                            d.queue.pop_front();
                            ++d.inFlight;
                            break;
                        }
                        // Work remains, nothing is in flight, and no
                        // member of the job's fleet can take it: the
                        // job is structurally stuck — fail it now
                        // rather than spin until the watchdog.
                        if (d.inFlight == 0 &&
                            !fleet_->anyUsable(members)) {
                            d.failed = true;
                            d.failReason =
                                "all " +
                                std::to_string(members.size()) +
                                " worker(s) dead";
                            d.cv.notify_all();
                            return;
                        }
                    }
                    d.cv.wait_for(lock,
                                  std::chrono::milliseconds(50));
                }
            }
            const bool clean = runChunk(addr, std::move(c));
            {
                std::lock_guard<std::mutex> lock(d.mu);
                --d.inFlight;
            }
            d.cv.notify_all();
            backoff = !clean;
        }
    };

    std::vector<std::thread> pumps;
    pumps.reserve(members.size());
    for (const std::string &addr : members)
        pumps.emplace_back(pump, addr);

    // Emit merged rows in global point order while the pumps stream.
    // A gap left by a lost chunk blocks emission past it; later rows
    // wait in `ready` until the re-dispatched chunk fills the gap.
    while (true) {
        std::vector<std::string> lines;
        bool finished = false;
        {
            std::unique_lock<std::mutex> lock(d.mu);
            d.cv.wait_for(lock, std::chrono::milliseconds(50), [&] {
                return job->cancel.load() || d.failed ||
                       d.ready.count(d.next) != 0 ||
                       d.deliveredCount == total;
            });
            for (auto it = d.ready.find(d.next); it != d.ready.end();
                 it = d.ready.find(d.next)) {
                lines.push_back(std::move(it->second));
                d.ready.erase(it);
                ++d.next;
            }
            finished = d.next == total || d.failed ||
                       job->cancel.load();
        }
        for (std::string &l : lines) {
            job->pointsDone.fetch_add(1);
            job->lastProgressMs = nowMs();
            rowsStreamed_.fetch_add(1);
            pushLine(job, std::move(l));
        }
        if (finished)
            break;
    }
    d.cv.notify_all();
    for (std::thread &t : pumps)
        t.join();

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    bool allArena, failed;
    std::size_t undelivered;
    std::string reason;
    {
        std::lock_guard<std::mutex> lock(d.mu);
        allArena = d.allArena && d.next == total;
        failed = d.failed;
        undelivered = total - d.next;
        reason = d.failReason;
    }
    if (job->cancel.load())
        finishJob(job, JobState::Cancelled, "", wall, false);
    else if (!failed && undelivered == 0)
        finishJob(job, JobState::Done, "", wall, allArena);
    else
        finishJob(job, JobState::Failed,
                  std::to_string(undelivered) + " of " +
                      std::to_string(total) +
                      " point(s) undeliverable" +
                      (reason.empty() ? "" : " (" + reason + ")"),
                  wall, false);
}

void
Server::releaseReservation(const std::shared_ptr<Job> &job)
{
    if (job->reservedBytes == 0)
        return;
    {
        std::lock_guard<std::mutex> lock(govMu_);
        reservedArenaBytes_ -= job->reservedBytes;
        job->reservedBytes = 0;
    }
    govCv_.notify_all();
}

void
Server::pushLine(const std::shared_ptr<Job> &job, std::string line)
{
    {
        std::lock_guard<std::mutex> lock(job->mu);
        if (job->streamDone)
            return; // no consumer will ever read it
        job->out.push_back(std::move(line));
    }
    job->cv.notify_all();
}

void
Server::releaseJob(const std::shared_ptr<Job> &job, bool worker)
{
    {
        std::lock_guard<std::mutex> lock(job->mu);
        if (worker) {
            // Only now is the grid certain to be idle: a watchdog
            // finalize can land while the driver still runs, so
            // finishJob itself must not touch `points`.
            job->workerDone = true;
            std::vector<SweepPoint>().swap(job->points);
        } else {
            job->streamDone = true;
            std::deque<std::string>().swap(job->out);
        }
        if (!job->workerDone || !job->streamDone)
            return;
    }
    // Both sides are done: the state and counts are final, and no
    // one will read a row again. Keep only what `status`, `cancel`
    // and a token duplicate read, so a finished job costs a summary
    // however many rows it streamed.
    const JobSummary summary = summaryOf(*job);
    std::lock_guard<std::mutex> lock(mu_);
    if (retired_.size() < job->id)
        retired_.resize(job->id);
    retired_[job->id - 1] = summary;
    jobs_.erase(job->id);
}

void
Server::finishJob(const std::shared_ptr<Job> &job, JobState state,
                  const std::string &error, double wall_seconds,
                  bool used_arena)
{
    // First finalizer wins: normally the worker, but the watchdog
    // retires a stuck job while its worker is still captive in the
    // point, and the worker's eventual call must then change nothing.
    bool expected = false;
    if (!job->finalized.compare_exchange_strong(expected, true))
        return;
    job->state = state;
    const char *name = jobStateName(static_cast<int>(state));
    Counter &ended = state == JobState::Done        ? jobsServed_
                     : state == JobState::Cancelled ? jobsCancelled_
                     : state == JobState::Failed    ? jobsFailed_
                                                    : jobsStuck_;
    ended.fetch_add(1);
    if (journal_)
        journal_->finished(job->id, name);
    JsonObjectWriter w;
    w.field("job", job->id)
        .field("done", true)
        .field("state", name)
        .field("points_done", job->pointsDone.load())
        .field("of", static_cast<std::uint64_t>(job->pointCount))
        .field("arena", used_arena)
        .field("wall_seconds", wall_seconds);
    if (!error.empty())
        w.field("error", error);
    pushLine(job, w.str());
    {
        std::lock_guard<std::mutex> lock(job->mu);
        job->closed = true;
    }
    job->cv.notify_all();
    log("job " + std::to_string(job->id) + ": " + name + " (" +
        std::to_string(job->pointsDone.load()) + "/" +
        std::to_string(job->pointCount) + " points)");
}

Server::JobSummary
Server::summaryOf(const Job &job)
{
    // State first: once it reads terminal, the count read after it
    // is final.
    return {job.state.load(), job.pointsDone.load(),
            static_cast<std::uint64_t>(job.pointCount)};
}

std::shared_ptr<Server::Job>
Server::lookupJob(std::uint64_t id, JobSummary &summary) const
{
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
        summary = summaryOf(*it->second);
        return it->second;
    }
    // Every issued id not in jobs_ has retired; id 0 wraps past the
    // end like an id never issued.
    if (id - 1 >= retired_.size())
        throw ProtocolError("unknown_job", "no such job");
    summary = retired_[id - 1];
    return nullptr;
}

JsonObjectWriter &
Server::writeSummary(JsonObjectWriter &w, const JobSummary &summary)
{
    return w.field("state", jobStateName(static_cast<int>(summary.state)))
        .field("points_done", summary.pointsDone)
        .field("of", summary.of);
}

std::uint64_t
Server::countJobs(JobState state) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::count_if(jobs_.begin(), jobs_.end(), [state](auto &kv) {
        return kv.second->state.load() == state;
    });
}

std::string
Server::statsJson(unsigned scope) const
{
    JsonObjectWriter w;
    return writeMetrics(w.field("ok", true), metrics_, scope)
        .raw("workers", fleet_->workersJson())
        .str();
}

void
Server::log(const std::string &msg) const
{
    if (!cfg_.quiet)
        std::fprintf(stderr, "[sfetchd] %s\n", msg.c_str());
}

} // namespace sfetch
