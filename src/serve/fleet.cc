#include "serve/fleet.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>

#include "serve/client.hh"
#include "serve/jsonio.hh"
#include "serve/socket_io.hh"

namespace sfetch
{

namespace
{

std::int64_t
steadyNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** EWMA smoothing for probe latency: heavy enough history that one
 * slow GC-ish probe doesn't dominate, fresh enough to track drift. */
constexpr double kEwmaAlpha = 0.2;

/** The load figures in a `health` reply; none from a daemon that
 * does not report them. */
std::optional<WorkerHealth>
healthOf(const JsonValue &rep)
{
    if (!rep.find("queue_depth"))
        return std::nullopt;
    return WorkerHealth{rep.at("queue_depth").asU64(),
                        rep.at("jobs_running").asU64(),
                        rep.at("uptime_seconds").asU64(),
                        rep.at("journal_degraded").asBool()};
}

} // namespace

const char *
workerStateName(WorkerState s)
{
    switch (s) {
    case WorkerState::Alive: return "alive";
    case WorkerState::Suspect: return "suspect";
    case WorkerState::Dead: return "dead";
    case WorkerState::Recovering: return "recovering";
    }
    return "unknown";
}

FleetManager::FleetManager(FleetConfig cfg, MetricsRegistry &metrics)
    : cfg_(cfg),
      probesSent_(metrics.counter("probes_sent")),
      probeFailures_(metrics.counter("probe_failures")),
      workerDeaths_(metrics.counter("worker_deaths"))
{
    metrics.gauge("workers_registered", [this] { return size(); },
                  MetricsRegistry::kStats | MetricsRegistry::kWorkers);
    metrics.gauge("workers_alive",
                  [this] { return countIn(WorkerState::Alive); });
    metrics.gauge("workers_suspect",
                  [this] { return countIn(WorkerState::Suspect); });
    metrics.gauge("workers_dead",
                  [this] { return countIn(WorkerState::Dead); });
    metrics.gauge("workers_recovering",
                  [this] { return countIn(WorkerState::Recovering); });
}

FleetManager::~FleetManager()
{
    stop();
}

void
FleetManager::seed(const std::vector<std::string> &addrs)
{
    for (const std::string &addr : addrs) {
        std::lock_guard<std::mutex> lock(mu_);
        if (find(addr))
            continue;
        Member m;
        m.addr = addr;
        m.staticSeed = true;
        members_.push_back(std::move(m));
    }
}

bool
FleetManager::registerWorker(const std::string &addr)
{
    parseSocketAddr(addr); // validate: throws std::invalid_argument
    std::lock_guard<std::mutex> lock(mu_);
    if (Member *m = find(addr)) {
        // Re-registration is a liveness claim from the worker side:
        // clear accumulated suspicion and probe it soon.
        if (m->state != WorkerState::Alive)
            toState(*m, WorkerState::Alive);
        m->consecutiveFailures = 0;
        m->backoffExp = 0;
        m->nextProbeDueMs = 0;
        return false;
    }
    Member m;
    m.addr = addr;
    members_.push_back(std::move(m));
    return true;
}

bool
FleetManager::deregisterWorker(const std::string &addr)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find_if(
        members_.begin(), members_.end(),
        [&](const Member &m) { return m.addr == addr; });
    if (it == members_.end())
        return false;
    members_.erase(it);
    return true;
}

std::vector<std::string>
FleetManager::members() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(members_.size());
    for (const Member &m : members_)
        out.push_back(m.addr);
    return out;
}

std::size_t
FleetManager::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return members_.size();
}

bool
FleetManager::usable(const std::string &addr) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const Member *m = find(addr);
    return m && m->state != WorkerState::Dead;
}

bool
FleetManager::anyUsable(const std::vector<std::string> &addrs) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string &addr : addrs) {
        const Member *m = find(addr);
        if (m && m->state != WorkerState::Dead)
            return true;
    }
    return false;
}

FleetManager::Member *
FleetManager::find(const std::string &addr)
{
    for (Member &m : members_)
        if (m.addr == addr)
            return &m;
    return nullptr;
}

const FleetManager::Member *
FleetManager::find(const std::string &addr) const
{
    for (const Member &m : members_)
        if (m.addr == addr)
            return &m;
    return nullptr;
}

void
FleetManager::toState(Member &m, WorkerState next)
{
    if (m.state == next)
        return;
    log("worker " + m.addr + ": " + workerStateName(m.state) +
        " -> " + workerStateName(next));
    m.state = next;
    ++m.transitions;
    if (next == WorkerState::Dead) {
        ++m.deaths;
        workerDeaths_.fetch_add(1);
        m.backoffExp = 0;
    }
}

void
FleetManager::applyFailure(Member &m, std::int64_t now_ms)
{
    ++m.consecutiveFailures;
    switch (m.state) {
    case WorkerState::Alive:
    case WorkerState::Suspect:
        if (m.consecutiveFailures >= kDeadAfter)
            toState(m, WorkerState::Dead);
        else if (m.consecutiveFailures >= kSuspectAfter)
            toState(m, WorkerState::Suspect);
        break;
    case WorkerState::Recovering:
        // Flapping: it answered once while dead, then failed again.
        toState(m, WorkerState::Dead);
        break;
    case WorkerState::Dead:
        m.backoffExp = std::min(m.backoffExp + 1, kMaxBackoffExp);
        break;
    }
    const std::int64_t interval =
        cfg_.probeIntervalMs > 0 ? cfg_.probeIntervalMs : 1000;
    m.nextProbeDueMs =
        now_ms + (m.state == WorkerState::Dead
                      ? interval << m.backoffExp
                      : interval);
}

void
FleetManager::applySuccess(Member &m, std::int64_t now_ms)
{
    m.consecutiveFailures = 0;
    m.backoffExp = 0;
    switch (m.state) {
    case WorkerState::Dead:
        // One good answer re-admits it to the pull set (recovering
        // is not dead), but it is not trusted as alive until a
        // second success confirms it held still.
        toState(m, WorkerState::Recovering);
        break;
    case WorkerState::Recovering:
    case WorkerState::Suspect:
        toState(m, WorkerState::Alive);
        break;
    case WorkerState::Alive:
        break;
    }
    const std::int64_t interval =
        cfg_.probeIntervalMs > 0 ? cfg_.probeIntervalMs : 1000;
    m.nextProbeDueMs = now_ms + interval;
}

void
FleetManager::reportDispatchFailure(const std::string &addr)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Member *m = find(addr)) {
        ++m->dispatchFailures;
        applyFailure(*m, steadyNowMs());
    }
}

void
FleetManager::reportDispatchSuccess(const std::string &addr)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (Member *m = find(addr)) {
        ++m->dispatchSuccesses;
        applySuccess(*m, steadyNowMs());
    }
}

FleetManager::ProbeResult
FleetManager::probeOne(const std::string &addr) const
{
    ProbeResult r;
    const std::int64_t t0 = steadyNowMs();
    try {
        ServeClient::ConnectRetry retry;
        retry.retries = 0;
        retry.connectTimeoutMs = cfg_.probeTimeoutMs;
        ServeClient client(addr, retry);
        client.setReadTimeout(cfg_.probeTimeoutMs);
        JsonValue rep = client.request("{\"verb\": \"health\"}");
        const JsonValue *ok = rep.find("ok");
        r.ok = ok && ok->kind == JsonValue::Kind::Bool && ok->boolean;
        if (r.ok)
            r.health = healthOf(rep);
    } catch (const std::exception &) {
        r.ok = false;
    }
    r.latencyMs = static_cast<double>(steadyNowMs() - t0);
    return r;
}

std::size_t
FleetManager::probeAll(std::int64_t now_ms)
{
    const std::int64_t now = now_ms < 0 ? steadyNowMs() : now_ms;
    std::vector<std::string> due;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (Member &m : members_)
            if (now >= m.nextProbeDueMs)
                due.push_back(m.addr);
    }
    std::size_t probed = 0;
    for (const std::string &addr : due) {
        // IO outside the lock: a hung worker costs this probe its
        // timeout, never a wedged stats/dispatch query.
        ProbeResult r = probeOne(addr);
        std::lock_guard<std::mutex> lock(mu_);
        Member *m = find(addr);
        if (!m)
            continue; // deregistered mid-probe
        ++probed;
        ++m->probes;
        probesSent_.fetch_add(1);
        if (r.ok) {
            m->ewmaLatencyMs =
                m->ewmaLatencyMs == 0.0
                    ? r.latencyMs
                    : (1.0 - kEwmaAlpha) * m->ewmaLatencyMs +
                          kEwmaAlpha * r.latencyMs;
            if (r.health)
                m->health = r.health;
            applySuccess(*m, now);
        } else {
            ++m->probeFailures;
            probeFailures_.fetch_add(1);
            applyFailure(*m, now);
        }
    }
    return probed;
}

void
FleetManager::proberLoop()
{
    probeAll();
    while (true) {
        {
            std::unique_lock<std::mutex> lock(proberMu_);
            proberCv_.wait_for(
                lock, std::chrono::milliseconds(cfg_.probeIntervalMs),
                [this] { return proberStop_; });
            if (proberStop_)
                return;
        }
        probeAll();
    }
}

void
FleetManager::start()
{
    if (cfg_.probeIntervalMs <= 0 || proberThread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(proberMu_);
        proberStop_ = false;
    }
    proberThread_ = std::thread([this] { proberLoop(); });
}

void
FleetManager::stop()
{
    {
        std::lock_guard<std::mutex> lock(proberMu_);
        proberStop_ = true;
    }
    proberCv_.notify_all();
    if (proberThread_.joinable())
        proberThread_.join();
}

std::vector<WorkerSnapshot>
FleetManager::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return {members_.begin(), members_.end()};
}

std::string
FleetManager::workersJson() const
{
    std::string out = "[";
    for (const WorkerSnapshot &w : snapshot()) {
        JsonObjectWriter e;
        e.field("addr", w.addr)
            .field("state", workerStateName(w.state))
            .field("static", w.staticSeed)
            .field("probes", w.probes)
            .field("probe_failures", w.probeFailures)
            .field("transitions", w.transitions)
            .field("dispatch_failures", w.dispatchFailures)
            .field("dispatch_successes", w.dispatchSuccesses)
            .field("deaths", w.deaths)
            .field("consecutive_failures", w.consecutiveFailures)
            .field("ewma_latency_ms", w.ewmaLatencyMs);
        if (w.health)
            e.field("queue_depth", w.health->queueDepth)
                .field("jobs_running", w.health->jobsRunning)
                .field("uptime_seconds", w.health->uptimeSeconds)
                .field("journal_degraded", w.health->journalDegraded);
        out += (out.size() > 1 ? ", " : "") + e.str();
    }
    return out + "]";
}

std::uint64_t
FleetManager::countIn(WorkerState s) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::count_if(members_.begin(), members_.end(),
                         [s](const Member &m) { return m.state == s; });
}

void
FleetManager::log(const std::string &msg) const
{
    if (!cfg_.quiet)
        std::fprintf(stderr, "[sfetchd] fleet: %s\n", msg.c_str());
}

} // namespace sfetch
