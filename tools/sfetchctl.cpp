/**
 * @file
 * sfetchctl: command-line client for sfetchd.
 *
 * Usage:
 *   sfetchctl [--connect ADDR] [--retries N] submit
 *             [--arch SPEC[,SPEC...]]
 *             [--bench SPEC[,SPEC...]|all] [--widths 2,4,8]
 *             [--layout base|opt] [--insts N] [--warmup N]
 *             [--jobs N] [--arena auto|off|require]
 *             [--token TOKEN]
 *   sfetchctl [--connect ADDR] status JOB
 *   sfetchctl [--connect ADDR] cancel JOB
 *   sfetchctl [--connect ADDR] stats
 *   sfetchctl [--connect ADDR] health
 *   sfetchctl [--connect ADDR] workers
 *   sfetchctl [--connect ADDR] register WORKER
 *   sfetchctl [--connect ADDR] deregister WORKER
 *   sfetchctl [--connect ADDR] shutdown [--no-drain]
 *
 * `workers` lists a front daemon's fleet with per-worker health
 * (alive/suspect/dead/recovering, probe counters, EWMA latency);
 * `register`/`deregister` grow and shrink the fleet at runtime.
 * WORKER is `unix:PATH`, `tcp:HOST:PORT`, or bare HOST:PORT
 * (meaning tcp:).
 *
 * ADDR is `unix:PATH`, `tcp:HOST:PORT`, or a bare Unix socket path
 * (default unix:/tmp/sfetchd.sock). --socket PATH survives as an
 * alias for --connect.
 *
 * submit prints every streamed line (ack, row frames, summary) to
 * stdout as it arrives, so `sfetchctl submit ... | jq` follows a
 * sweep live. Exit status: 0 on success, 1 when the daemon rejects
 * or the job fails, 2 on usage errors.
 *
 * --token makes a submit idempotent against a journalled daemon
 * (--state-dir): resubmitting the same token after a crash either
 * attaches to the recovered job and streams its rows, or — if the
 * rows were already delivered — returns a one-line duplicate reply.
 * --retries N retries a refused connection with capped exponential
 * backoff, covering the daemon's restart window.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "serve/client.hh"
#include "sim/cli.hh"

using namespace sfetch;

namespace
{

/** The flat submit request from the parsed command line. */
std::string
submitJson(const std::string &arch, const std::string &bench,
           const std::string &widths, const std::string &layout,
           std::uint64_t insts, std::uint64_t warmup, bool warmup_set,
           unsigned jobs, bool jobs_set, const std::string &arena,
           const std::string &token)
{
    JsonObjectWriter w;
    w.field("verb", "submit");
    if (!arch.empty())
        w.field("arch", arch);
    if (!bench.empty())
        w.field("bench", bench);
    if (!widths.empty()) {
        std::string arr = "[";
        for (unsigned width : CliParser::parseUnsignedList(widths))
            arr += (arr.size() == 1 ? "" : ",") +
                   std::to_string(width);
        w.raw("widths", arr + "]");
    }
    if (!layout.empty())
        w.field("layout", layout);
    if (insts)
        w.field("insts", insts);
    if (warmup_set)
        w.field("warmup", warmup);
    if (jobs_set)
        w.field("jobs", static_cast<std::uint64_t>(jobs));
    if (!arena.empty())
        w.field("arena", arena);
    if (!token.empty())
        w.field("token", token);
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path = "/tmp/sfetchd.sock";
    std::string command;
    std::string job_arg;
    std::string arch, bench, widths, layout, arena, token;
    std::uint64_t insts = 0, warmup = 0;
    bool warmup_set = false;
    unsigned jobs = 0;
    bool jobs_set = false;
    bool no_drain = false;
    ServeClient::ConnectRetry retry;

    CliParser cli("sfetchctl",
                  "talk to a running sfetchd (submit streams rows "
                  "live; see serve/server.hh for the protocol)");
    cli.addOption("--connect", "ADDR",
                  "daemon address: unix:PATH, tcp:HOST:PORT, or a "
                  "bare socket path (default /tmp/sfetchd.sock)",
                  [&](const std::string &v) { socket_path = v; });
    cli.addOption("--socket", "PATH", "alias for --connect",
                  [&](const std::string &v) { socket_path = v; });
    cli.addOption("--arch", "SPEC[,SPEC...]",
                  "engine specs (submit; default stream)",
                  [&](const std::string &v) { arch = v; });
    cli.addOption("--bench", "SPEC[,SPEC...]",
                  "workload specs or 'all' (submit; default gcc)",
                  [&](const std::string &v) { bench = v; });
    cli.addOption("--widths", "W[,W...]",
                  "pipe widths (submit; default 8)",
                  [&](const std::string &v) { widths = v; });
    cli.addOption("--layout", "base|opt",
                  "code layout (submit; default opt)",
                  [&](const std::string &v) { layout = v; });
    cli.addOption("--insts", "N",
                  "measured instructions (submit; default 1000000)",
                  [&](const std::string &v) {
                      insts = CliParser::parseU64(v);
                  });
    cli.addOption("--warmup", "N",
                  "warmup instructions (submit; default insts/5)",
                  [&](const std::string &v) {
                      warmup = CliParser::parseU64(v);
                      warmup_set = true;
                  });
    cli.addOption("--jobs", "N",
                  "sweep threads for this job (submit; default: the "
                  "daemon's share of its cores; 1 streams rows in "
                  "point order)",
                  [&](const std::string &v) {
                      jobs = CliParser::parseUnsignedList(v).at(0);
                      jobs_set = true;
                  });
    cli.addOption("--arena", "auto|off|require",
                  "arena policy (submit; default auto)",
                  [&](const std::string &v) { arena = v; });
    cli.addOption("--token", "TOKEN",
                  "idempotency token (submit; resubmits attach to or "
                  "deduplicate the journalled job)",
                  [&](const std::string &v) { token = v; });
    cli.addOption("--retries", "N",
                  "retry a refused connect N times with backoff "
                  "(default 0)",
                  [&](const std::string &v) {
                      retry.retries = static_cast<int>(
                          CliParser::parseUnsignedList(v).at(0));
                  });
    cli.addFlag("--no-drain",
                "shutdown: cancel jobs instead of finishing them",
                [&] { no_drain = true; });
    cli.onPositional(
        "COMMAND [ARG]",
        "submit | status JOB | cancel JOB | stats | health | "
        "workers | register WORKER | deregister WORKER | shutdown",
        [&](const std::string &v) {
            if (command.empty())
                command = v;
            else
                job_arg = v;
        });
    cli.parseOrExit(argc, argv);

    if (command.empty()) {
        std::fprintf(stderr, "sfetchctl: no command\n%s",
                     cli.usage().c_str());
        return 2;
    }

    try {
        ServeClient client(socket_path, retry);

        if (command == "submit") {
            bool ok_summary = false;
            const bool done = client.submitStream(
                submitJson(arch, bench, widths, layout, insts,
                           warmup, warmup_set, jobs, jobs_set,
                           arena, token),
                [&](const JsonValue &parsed, const std::string &raw) {
                    std::printf("%s\n", raw.c_str());
                    std::fflush(stdout);
                    if (const JsonValue *state =
                            parsed.find("state"))
                        ok_summary = state->kind ==
                                         JsonValue::Kind::String &&
                                     state->string == "done";
                    return true;
                });
            return done && ok_summary ? 0 : 1;
        }

        std::string request;
        if (command == "status" || command == "cancel") {
            if (job_arg.empty()) {
                std::fprintf(stderr, "sfetchctl: %s needs a JOB id\n",
                             command.c_str());
                return 2;
            }
            std::uint64_t job_id = 0;
            try {
                job_id = CliParser::parseU64(job_arg);
            } catch (const std::exception &) {
                std::fprintf(stderr,
                             "sfetchctl: %s: JOB must be a job id, "
                             "got '%s'\n",
                             command.c_str(), job_arg.c_str());
                return 2;
            }
            JsonObjectWriter w;
            w.field("verb", command).field("job", job_id);
            request = w.str();
        } else if (command == "stats" || command == "health" ||
                   command == "workers") {
            JsonObjectWriter w;
            w.field("verb", command);
            request = w.str();
        } else if (command == "register" ||
                   command == "deregister") {
            if (job_arg.empty()) {
                std::fprintf(stderr,
                             "sfetchctl: %s needs a WORKER address\n",
                             command.c_str());
                return 2;
            }
            JsonObjectWriter w;
            w.field("verb", command).field("worker", job_arg);
            request = w.str();
        } else if (command == "shutdown") {
            JsonObjectWriter w;
            w.field("verb", "shutdown").field("drain", !no_drain);
            request = w.str();
        } else {
            std::fprintf(stderr, "sfetchctl: unknown command '%s'\n%s",
                         command.c_str(), cli.usage().c_str());
            return 2;
        }

        const std::string reply = client.requestRaw(request);
        std::printf("%s\n", reply.c_str());
        const JsonValue parsed = JsonReader(reply).parse();
        const JsonValue *ok = parsed.find("ok");
        return ok && ok->kind == JsonValue::Kind::Bool && ok->boolean
                   ? 0
                   : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sfetchctl: %s\n", e.what());
        return 1;
    }
}
