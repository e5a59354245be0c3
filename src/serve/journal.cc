#include "serve/journal.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "serve/jsonio.hh"
#include "util/fault_inject.hh"

namespace sfetch
{

namespace
{

constexpr const char *kLogName = "jobs.ndjson";

/** Rewriting threshold: compact once terminal records outnumber the
 * live set by this slack (so tiny logs are never churned). */
constexpr std::uint64_t kCompactSlack = 64;

int
openAppend(const std::string &path)
{
    return ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
}

std::string
renderSubmitted(std::uint64_t id, const std::string &token,
                const std::string &spec)
{
    JsonObjectWriter w;
    w.field("rec", "submitted").field("job", id);
    if (!token.empty())
        w.field("token", token);
    w.raw("spec", spec);
    return w.str();
}

std::string
renderStarted(std::uint64_t id)
{
    return JsonObjectWriter()
        .field("rec", "started")
        .field("job", id)
        .str();
}

std::string
renderWorker(const std::string &addr, bool registered)
{
    return JsonObjectWriter()
        .field("rec", "worker")
        .field("addr", addr)
        .field("op", registered ? "register" : "deregister")
        .str();
}

/** write(2) all of @p text to @p fd, riding out EINTR/short writes. */
bool
writeAll(int fd, const std::string &text)
{
    std::size_t at = 0;
    while (at < text.size()) {
        ssize_t n = ::write(fd, text.data() + at, text.size() - at);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        at += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

JobJournal::JobJournal(const std::string &state_dir)
    : dir_(state_dir), path_(state_dir + "/" + kLogName)
{
    if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST)
        throw std::runtime_error("journal: cannot create state dir '" +
                                 dir_ + "': " + std::strerror(errno));
    fd_ = openAppend(path_);
    if (fd_ < 0)
        throw std::runtime_error("journal: cannot open '" + path_ +
                                 "': " + std::strerror(errno));
}

JobJournal::~JobJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::vector<RecoveredJob>
JobJournal::recover()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ifstream in(path_);
    std::map<std::uint64_t, RecoveredJob> open;
    std::vector<std::uint64_t> order;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        try {
            JsonValue rec = JsonReader(line).parse();
            const std::string &kind = rec.at("rec").asString();
            if (kind == "worker") {
                // Membership records carry no job id; replay them
                // into the final per-address op set.
                upsertWorkerOp(rec.at("addr").asString(),
                               rec.at("op").asString() == "register");
                continue;
            }
            const std::uint64_t id = rec.at("job").asU64();
            if (kind == "submitted") {
                RecoveredJob job;
                job.id = id;
                if (const JsonValue *t = rec.find("token"))
                    job.token = t->asString();
                rec.at("spec"); // require a (parsed-valid) spec...
                // ...then keep its exact text: renderSubmitted()
                // always writes "spec" last, so the spec is the tail
                // of the line minus the record's own closing brace.
                const std::size_t at = line.find("\"spec\": ");
                job.spec = line.substr(at + std::strlen("\"spec\": "));
                job.spec.pop_back();
                if (open.insert({id, std::move(job)}).second)
                    order.push_back(id);
            } else if (kind == "started") {
                auto it = open.find(id);
                if (it != open.end())
                    it->second.started = true;
            } else if (kind == "finished") {
                open.erase(id);
            } else {
                ++torn_; // unknown record kind: count, keep going
            }
        } catch (const std::exception &) {
            // Torn tail after kill -9, or a corrupt line: the jobs
            // described by intact lines are still recoverable.
            ++torn_;
        }
    }
    std::vector<RecoveredJob> out;
    out.reserve(open.size());
    for (std::uint64_t id : order) {
        auto it = open.find(id);
        if (it != open.end())
            out.push_back(std::move(it->second));
    }
    return out;
}

bool
JobJournal::rewriteLog()
{
    const std::string tmp = path_ + ".tmp";
    int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (tfd < 0)
        return false;
    std::string text;
    for (const auto &[addr, registered] : workerOps_) {
        text += renderWorker(addr, registered);
        text += '\n';
    }
    for (const auto &[id, entry] : live_) {
        text += renderSubmitted(id, entry.token, entry.spec);
        text += '\n';
        if (entry.started) {
            text += renderStarted(id);
            text += '\n';
        }
    }
    bool ok = writeAll(tfd, text) && ::fdatasync(tfd) == 0;
    ::close(tfd);
    ok = ok && ::rename(tmp.c_str(), path_.c_str()) == 0;
    if (!ok) {
        ::unlink(tmp.c_str());
        return false;
    }
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = openAppend(path_);
    finishedSinceCompact_ = 0;
    return fd_ >= 0;
}

void
JobJournal::reset(const std::vector<RecoveredJob> &live)
{
    std::lock_guard<std::mutex> lock(mu_);
    live_.clear();
    for (const RecoveredJob &job : live)
        live_[job.id] = Live{job.token, job.spec, false};
    if (!rewriteLog())
        degraded_ = true;
}

void
JobJournal::appendLine(const std::string &line)
{
    if (degraded_ || fd_ < 0)
        return;
    bool ok = !SFETCH_FAULT("journal.append") &&
              writeAll(fd_, line + "\n");
    if (ok && SFETCH_FAULT("journal.fsync"))
        ok = false;
    ok = ok && ::fdatasync(fd_) == 0;
    if (!ok) {
        // Disk trouble: stop journaling, keep serving. The log may
        // hold a half-written line; recover() tolerates that.
        degraded_ = true;
        ::close(fd_);
        fd_ = -1;
    }
}

void
JobJournal::compactIfNeeded()
{
    if (degraded_ ||
        finishedSinceCompact_ < kCompactSlack + live_.size())
        return;
    if (!rewriteLog())
        degraded_ = true;
}

void
JobJournal::submitted(std::uint64_t id, const std::string &token,
                      const std::string &spec_json)
{
    std::lock_guard<std::mutex> lock(mu_);
    live_[id] = Live{token, spec_json, false};
    appendLine(renderSubmitted(id, token, spec_json));
}

void
JobJournal::started(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(id);
    if (it != live_.end())
        it->second.started = true;
    appendLine(renderStarted(id));
}

void
JobJournal::upsertWorkerOp(const std::string &addr, bool registered)
{
    for (auto &[have, op] : workerOps_) {
        if (have == addr) {
            op = registered;
            return;
        }
    }
    workerOps_.emplace_back(addr, registered);
}

std::vector<std::pair<std::string, bool>>
JobJournal::recoveredWorkers() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return workerOps_;
}

void
JobJournal::worker(const std::string &addr, bool registered)
{
    std::lock_guard<std::mutex> lock(mu_);
    upsertWorkerOp(addr, registered);
    appendLine(renderWorker(addr, registered));
}

void
JobJournal::finished(std::uint64_t id, const std::string &state)
{
    std::lock_guard<std::mutex> lock(mu_);
    live_.erase(id);
    ++finishedSinceCompact_;
    appendLine(JsonObjectWriter()
                   .field("rec", "finished")
                   .field("job", id)
                   .field("state", state)
                   .str());
    compactIfNeeded();
}

} // namespace sfetch
